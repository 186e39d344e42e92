package core

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/testapps"
)

func TestOwnerProvisioningBindsIdentity(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	w.owner.ConfigureApp(app)
	rt, err := enclave.Build(w.hostA, app, w.owner.Signer())
	if err != nil {
		t.Fatal(err)
	}
	own(t, rt)
	if err := w.owner.Provision(rt); err != nil {
		t.Fatal(err)
	}
	// A second provisioning attempt is refused in-enclave (privOK set).
	err = w.owner.Provision(rt)
	var ee *enclave.EnclaveError
	if !errors.As(err, &ee) {
		t.Fatalf("double provisioning: %v", err)
	}
}

func TestRogueOwnerCannotProvision(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	w.owner.ConfigureApp(app) // embeds the legitimate owner's public key
	rt, err := enclave.Build(w.hostA, app, w.owner.Signer())
	if err != nil {
		t.Fatal(err)
	}
	own(t, rt)
	rogue, err := NewOwner(w.service)
	if err != nil {
		t.Fatal(err)
	}
	// The rogue owner's private key does not match the embedded public key:
	// the enclave rejects the delivered seed.
	if err := rogue.Provision(rt); err == nil {
		t.Fatal("rogue owner provisioned someone else's enclave image")
	}
}

func TestMigrationWithAgentEnclave(t *testing.T) {
	w := newWorld(t)
	agentApp := NewAgentApp(w.owner)
	agentMR := enclave.MeasureApp(agentApp)

	app := testapps.CounterApp(2)
	app.AgentMeasurement = agentMR
	src := w.launch(t, app)
	_, reg := w.deploy(app)

	if _, err := src.ECall(0, testapps.CounterAdd, 77); err != nil {
		t.Fatal(err)
	}

	agent, err := StartAgent(w.hostB, w.owner)
	if err != nil {
		t.Fatal(err)
	}
	own(t, agent.Runtime())
	if agent.Measurement() != agentMR {
		t.Fatal("agent measurement drifted from MeasureApp")
	}
	opts := w.opts()
	opts.Agent = agent
	// Pre-establish the channel before the "downtime window" (Sec. VI-D);
	// this is where the attestation round trips happen.
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err := Dump(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.PreEstablish(src, opts); err != nil {
		t.Fatal(err)
	}
	attestsBefore := w.service.Requests()

	// The critical-path migration: key flows source→agent→target locally,
	// with zero additional attestation-service round trips.
	t1, t2 := testPipe(t)
	var inc *Incoming
	var inErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inc, inErr = MigrateIn(w.hostB, reg, t2, opts)
	}()
	if _, err := MigrateOutPrepared(src, blob, t1, opts); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if inErr != nil {
		t.Fatal(inErr)
	}
	own(t, inc.Runtime)
	if got := w.service.Requests(); got != attestsBefore {
		t.Fatalf("agent path still hit the attestation service (%d -> %d)", attestsBefore, got)
	}
	res, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 77 {
		t.Fatalf("migrated counter = %d, want 77", res[0])
	}
	// The agent refuses a second delivery (single-instance at the agent).
	tgt2, err := enclave.BuildSigned(w.hostB, app, sgx.SignEnclave(w.owner.Signer(), enclave.MeasureApp(app)))
	if err != nil {
		t.Fatal(err)
	}
	own(t, tgt2)
	if err := targetKeyFromAgent(tgt2, agent); err == nil {
		t.Fatal("agent delivered Kmigrate twice — fork enabled")
	}
}

func TestOwnerCheckpointResumeAudited(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(2)
	src := w.launch(t, app)
	dep, _ := w.deploy(app)

	if _, err := src.ECall(0, testapps.CounterAdd, 1000); err != nil {
		t.Fatal(err)
	}
	blob, err := OwnerCheckpoint(w.owner, src)
	if err != nil {
		t.Fatal(err)
	}
	// The source keeps running after the snapshot.
	if res, err := src.ECall(0, testapps.CounterAdd, 1); err != nil || res[0] != 1001 {
		t.Fatalf("source after checkpoint: %v %v", err, res)
	}

	inc, err := OwnerResume(w.owner, w.hostB, dep, blob)
	if err != nil {
		t.Fatal(err)
	}
	own(t, inc.Runtime)
	res, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 1000 {
		t.Fatalf("resumed counter = %d, want 1000 (snapshot time)", res[0])
	}

	// A second resume from the same checkpoint is technically possible
	// (that's the rollback the paper discusses) but every operation lands
	// in the owner's audit log, which is how it is detected.
	again, err := OwnerResume(w.owner, w.hostA, dep, blob)
	if err != nil {
		t.Fatal(err)
	}
	own(t, again.Runtime)
	audit := w.owner.Audit()
	var checkpoints, resumes int
	for _, rec := range audit {
		switch rec.Op {
		case "checkpoint":
			checkpoints++
		case "resume":
			resumes++
		}
	}
	if checkpoints != 1 || resumes != 2 {
		t.Fatalf("audit log: %d checkpoints, %d resumes; want 1 and 2", checkpoints, resumes)
	}
}

func TestMigrationKeyedCipherVariants(t *testing.T) {
	for _, cipher := range []tcb.CheckpointCipher{tcb.CipherAESGCM, tcb.CipherRC4, tcb.CipherDES} {
		t.Run(cipher.String(), func(t *testing.T) {
			w := newWorld(t)
			app := testapps.CounterApp(1)
			src := w.launch(t, app)
			_, reg := w.deploy(app)
			if _, err := src.ECall(0, testapps.CounterAdd, 5); err != nil {
				t.Fatal(err)
			}
			opts := w.opts()
			opts.Cipher = cipher
			_, inc := runMigration(t, src, w.hostB, reg, opts)
			res, err := inc.Runtime.ECall(0, testapps.CounterGet)
			if err != nil {
				t.Fatal(err)
			}
			if res[0] != 5 {
				t.Fatalf("counter = %d", res[0])
			}
		})
	}
}

func TestMigrationOverTCP(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	if _, err := src.ECall(0, testapps.CounterAdd, 314); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var inc *Incoming
	var inErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			inErr = err
			return
		}
		inc, inErr = MigrateIn(w.hostB, reg, NewConnTransport(conn), w.opts())
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MigrateOut(src, NewConnTransport(conn), w.opts()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if inErr != nil {
		t.Fatal(inErr)
	}
	own(t, inc.Runtime)
	res, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 314 {
		t.Fatalf("counter over TCP = %d", res[0])
	}
}

func TestPrepareTimesOutOnHostileWorkload(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(2)
	// A worker that ignores the interrupt forever is not constructible from
	// the untrusted side — quiescence always converges here. Pin the budget
	// behaviour instead with an absurdly short budget, a counting worker
	// and one held inside a single step, which cannot park before the
	// budget is gone.
	hold, release := withHold(t, app)
	src := w.launch(t, app)
	const iterations = 5_000_000
	done := countInside(t, src, iterations)
	held := hold(src)
	opts := w.opts()
	opts.PollBudget = time.Nanosecond
	opts.PollInterval = time.Microsecond
	_, err := Prepare(src, opts)
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("prepare with zero budget: %v", err)
	}
	// A failed Prepare cancels the migration itself; the enclave resumes
	// without any action from the caller, so the busy ecall completes —
	// with every step counted.
	release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
	if res, err := src.ECall(0, testapps.CounterGet); err != nil || res[0] != iterations {
		t.Fatalf("counter after the failed Prepare: %v %v, want %d", res, err, iterations)
	}
}
