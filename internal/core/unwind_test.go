package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/ledger"
	"repro/internal/sgx"
	"repro/internal/telemetry"
	"repro/internal/testapps"
)

// Failure paths no other test reaches. Each fails one step of a migration
// or an owner operation and leaves the rest to the ledger check of the
// world (or of the test, for the transports): what the failed step took
// must be back when the test ends.

// failed reports whether a span ended with an error.
func failed(r telemetry.SpanRecord) bool {
	for _, a := range r.Attrs {
		if a.Key == "error" {
			return true
		}
	}
	return false
}

// TestOwnerResumeOnUnattestedMachine: the owner will not deliver Kencrypt
// to an instance on a machine the attestation service does not know, so
// OwnerResume fails after the build, and the instance it built is
// destroyed. The same checkpoint then resumes on a known machine.
func TestOwnerResumeOnUnattestedMachine(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	dep, _ := w.deploy(app)
	if _, err := src.ECall(0, testapps.CounterAdd, 5); err != nil {
		t.Fatal(err)
	}
	blob, err := OwnerCheckpoint(w.owner, src)
	if err != nil {
		t.Fatal(err)
	}

	mC, err := sgx.NewMachine(sgx.Config{Name: "unattested", Quantum: 2000})
	if err != nil {
		t.Fatal(err)
	}
	hostC := enclave.NewBareHost(mC)
	ledger.Check(t,
		ledger.Holding{Kind: "enclaves on the unattested machine", Excess: mC.LiveEnclaves},
		ledger.Holding{Kind: "stray EPC frames on the unattested machine", Excess: hostC.Mgr.StrayFrames})
	if inc, err := OwnerResume(w.owner, hostC, dep, blob); err == nil {
		own(t, inc.Runtime)
		t.Fatal("the owner delivered Kencrypt to an unattested machine")
	}

	inc, err := OwnerResume(w.owner, w.hostB, dep, blob)
	if err != nil {
		t.Fatal(err)
	}
	own(t, inc.Runtime)
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 5 {
		t.Fatalf("resumed counter = %d, %v; want 5", res[0], err)
	}
}

// TestAgentMigrationWithoutPreEstablishedChannel: an agent migration over
// MigrateOut whose channel to the agent was not built ahead of time builds
// it at the commit point and completes.
func TestAgentMigrationWithoutPreEstablishedChannel(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	app.AgentMeasurement = enclave.MeasureApp(NewAgentApp(w.owner))
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	if _, err := src.ECall(0, testapps.CounterAdd, 9); err != nil {
		t.Fatal(err)
	}
	agent, err := StartAgent(w.hostB, w.owner)
	if err != nil {
		t.Fatal(err)
	}
	own(t, agent.Runtime())
	opts := w.opts()
	opts.Agent = agent
	_, inc := runMigration(t, src, w.hostB, reg, opts)
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 9 {
		t.Fatalf("migrated counter = %d, %v; want 9", res[0], err)
	}
}

// TestTargetBuildFailureEndsItsSpan: a target that cannot build the
// announced image (its EPC holds two frames) refuses the migration; its
// build span ends with the error, the source resumes, and nothing the
// target took stays held.
func TestTargetBuildFailureEndsItsSpan(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	tr := telemetry.New()
	root := tr.Begin("hop")
	defer root.End()
	opts := w.opts()
	opts.Trace = root

	small := enclave.NewConstrainedHost(w.mB, 2)
	t1, t2 := testPipe(t)
	inErr := make(chan error, 1)
	go func() {
		inc, err := MigrateIn(small, reg, t2, opts)
		if err == nil {
			own(t, inc.Runtime)
		}
		inErr <- err
	}()
	if _, err := MigrateOut(src, t1, opts); err == nil {
		t.Fatal("MigrateOut succeeded against a target that cannot build")
	}
	if err := <-inErr; err == nil {
		t.Fatal("MigrateIn built the image in two frames")
	}
	if b := tr.ByName("core.target.build"); len(b) != 1 || !failed(b[0]) {
		t.Fatalf("target build spans %+v, want one that failed", b)
	}
	if _, err := src.ECall(0, testapps.CounterGet); err != nil {
		t.Fatalf("source after the target's refusal: %v", err)
	}
}

// TestChannelWireFailureEndsItsSpan: the held checkpoint of a prepared
// source (MigrateOutChannel) cannot be sent; the wire span ends with the
// error and the source resumes.
func TestChannelWireFailureEndsItsSpan(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	tr := telemetry.New()
	root := tr.Begin("hop")
	defer root.End()
	opts := w.opts()
	opts.Trace = root
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err := Dump(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := testPipe(t)
	if _, err := MigrateOutChannel(src, blob, NewFaultyTransport(t1, 2, true), opts); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("MigrateOutChannel over a failing link: %v", err)
	}
	if ws := tr.ByName("core.wire"); len(ws) != 1 || !failed(ws[0]) {
		t.Fatalf("wire spans %+v, want one that failed", ws)
	}
	if _, err := src.ECall(0, testapps.CounterGet); err != nil {
		t.Fatalf("source after the failed send: %v", err)
	}
}

// TestCorruptFrameBodyReturnsItsBuffer: a frame whose header reads well but
// whose body does not decode is refused, and the buffer it was read into
// goes back to the pool.
func TestCorruptFrameBodyReturnsItsBuffer(t *testing.T) {
	ledger.Check(t)
	enc := AppendFrame(nil, &PageFrame{Kind: FrameRaw, Pages: []int{3}, Data: make([]byte, PageSize)})
	enc[5] = 2 // two page numbers, the second read out of the page data
	for i := 0; i < 3; i++ {
		if f, err := ReadFrame(bytes.NewReader(enc)); err == nil {
			f.Release()
			t.Fatal("a frame with a page number out of order decoded")
		}
	}
}

// TestClosedPipeReturnsQueuedBuffers: a pipe closed with frames queued, and
// under a writer blocked on its full queue, hands every buffer back to the
// pool, whichever way the blocked write ends.
func TestClosedPipeReturnsQueuedBuffers(t *testing.T) {
	ledger.Check(t)
	for i := 0; i < 20; i++ {
		a, _ := NewPipe()
		for j := 0; j < cap(pipeOf(a).out); j++ {
			if err := a.Send(Message{Kind: MsgDone}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		held := pooledBufs.Load()
		go func() {
			defer wg.Done()
			_ = a.Send(Message{Kind: MsgDone})
		}()
		for pooledBufs.Load() == held {
			time.Sleep(10 * time.Microsecond)
		}
		time.Sleep(time.Millisecond) // let the write reach its select
		_ = a.Close()
		wg.Wait()
	}
}

// TestHostileImageAnnouncementRefused: a peer announces a registered image
// under another measurement. The target refuses it before building
// anything, and its registry entry is untouched: an honest migration of the
// same image goes through afterwards.
func TestHostileImageAnnouncementRefused(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	if _, err := src.ECall(0, testapps.CounterAdd, 3); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New()
	root := tr.Begin("hostile")
	defer root.End()
	opts := w.opts()
	opts.Trace = root

	t1, t2 := testPipe(t)
	inErr := make(chan error, 1)
	go func() {
		inc, err := MigrateIn(w.hostB, reg, t2, opts)
		if err == nil {
			own(t, inc.Runtime)
		}
		inErr <- err
	}()
	wrong := src.Measurement()
	wrong[0] ^= 1
	if err := t1.Send(Message{Kind: MsgImage, Blob: imageBlob(app.Name, wrong, src.Layout().Threads)}); err != nil {
		t.Fatal(err)
	}
	if err := <-inErr; !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("target after a hostile announcement: %v, want ErrUnknownImage", err)
	}
	if b := tr.ByName("core.target.build"); len(b) != 0 {
		t.Fatalf("the target built for a hostile announcement: %+v", b)
	}

	_, inc := runMigration(t, src, w.hostB, reg, w.opts())
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 3 {
		t.Fatalf("honest migration after the hostile announcement: counter %d, %v; want 3", res[0], err)
	}
}
