package attack

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sim"
	"repro/internal/testapps"
	"repro/internal/workload"
)

func launchBank(t *testing.T, w *sim.World) (*core.Deployment, *enclave.Runtime) {
	t.Helper()
	dep := w.Deploy(testapps.BankApp(2))
	rt, err := w.Launch(dep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ECall(0, testapps.BankInit, 1_000_000); err != nil {
		t.Fatal(err)
	}
	return dep, rt
}

// startTransfers runs the transfer loop in the background, returning a
// cleanup func.
func startTransfers(rt *enclave.Runtime, rounds uint64) (done chan error) {
	done = make(chan error, 1)
	go func() {
		_, err := rt.ECall(0, testapps.BankTransfer, 1, rounds)
		done <- err
	}()
	return done
}

// TestDataConsistencyAttackOnNaiveCheckpoint reproduces Fig. 3: without
// two-phase checkpointing a lying OS captures a checkpoint while a worker
// is mid-transfer and the restored instance violates the balance invariant.
func TestDataConsistencyAttackOnNaiveCheckpoint(t *testing.T) {
	const initBalance = 1_000_000
	violated := false
	for attempt := 0; attempt < 12 && !violated; attempt++ {
		w := sim.NewTestWorld(t, sim.Config{Machines: 2})
		dep, rt := launchBank(t, w)
		done := startTransfers(rt, 40_000_000)

		// Confirm the transfer is demonstrably in flight (query on the
		// second worker thread).
		for i := 0; ; i++ {
			res, err := rt.ECall(1, testapps.BankSum)
			if err != nil {
				t.Fatal(err)
			}
			if res[1] != initBalance {
				break
			}
			if i > 200000 {
				t.Fatal("transfer never got going")
			}
		}
		blob, err := NaiveDump(rt)
		if err != nil {
			t.Fatal(err)
		}

		// Complete the migration protocol with the inconsistent blob.
		inc := migrateBlob(t, w, rt, dep, blob)
		res, err := inc.Runtime.ECall(0, testapps.BankSum)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != 2*initBalance {
			violated = true
			t.Logf("attempt %d: invariant violated: A+B = %d (A=%d B=%d), want %d",
				attempt, res[0], res[1], res[2], 2*initBalance)
		}
		// Kick the still-running (destroyed) source worker so it exits.
		rt.RequestMigration()
		<-done
	}
	if !violated {
		t.Fatal("naive checkpointing never violated the invariant; the ablation lost its teeth")
	}
}

// TestTwoPhaseRefusesNonQuiescentDump: the real control thread will not
// dump while any worker is outside the safe states, no matter what the OS
// claims (defence for P-3).
func TestTwoPhaseRefusesNonQuiescentDump(t *testing.T) {
	w := sim.NewTestWorld(t, sim.Config{Machines: 1})
	_, rt := launchBank(t, w)
	done := startTransfers(rt, 3_000_000)
	if err := testapps.AwaitDebit(rt, 1_000_000); err != nil {
		t.Fatal(err)
	}

	err := TwoPhaseDumpWithoutQuiescence(rt)
	var ee *enclave.EnclaveError
	if !errors.As(err, &ee) {
		t.Fatalf("dump while running: err = %v, want in-enclave refusal", err)
	}
	if err := core.Cancel(rt); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("transfers after cancel: %v", err)
	}
}

// TestTwoPhaseMigrationPreservesInvariant: the defended path (full
// migration mid-transfer) never loses a unit of money.
func TestTwoPhaseMigrationPreservesInvariant(t *testing.T) {
	const initBalance = 1_000_000
	const rounds = 300_000
	w := sim.NewTestWorld(t, sim.Config{Machines: 2})
	_, rt := launchBank(t, w)
	done := startTransfers(rt, rounds)
	if err := testapps.AwaitDebit(rt, initBalance); err != nil {
		t.Fatal(err)
	}

	t1, t2 := pipePair(t)
	inc, outErr, inErr := migrateOver(w, rt, t1, t2)
	if outErr != nil || inErr != nil {
		t.Fatalf("migration: out %v, in %v", outErr, inErr)
	}
	<-done // source caller sees ErrDestroyed

	// Drain the resumed transfer to completion on the target.
	for r := range inc.Results {
		if r.Err != nil {
			t.Fatalf("resumed transfer failed: %v", r.Err)
		}
	}
	res, err := inc.Runtime.ECall(0, testapps.BankSum)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 2*initBalance {
		t.Fatalf("invariant violated across migration: A+B = %d, want %d", res[0], 2*initBalance)
	}
	if res[1] != initBalance-rounds || res[2] != initBalance+rounds {
		t.Fatalf("transfer did not complete exactly: A=%d B=%d", res[1], res[2])
	}
}

// migrateBlob completes a migration for an externally produced checkpoint.
func migrateBlob(t *testing.T, w *sim.World, src *enclave.Runtime, dep *core.Deployment, blob []byte) *core.Incoming {
	t.Helper()
	reg := core.NewRegistry()
	reg.Add(dep)
	t1, t2 := pipePair(t)
	var inc *core.Incoming
	var inErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inc, inErr = core.MigrateIn(w.Hosts[1], reg, t2, w.Opts())
	}()
	if _, err := core.MigrateOutPrepared(src, blob, t1, w.Opts()); err != nil {
		t.Fatalf("MigrateOutPrepared: %v", err)
	}
	wg.Wait()
	if inErr != nil {
		t.Fatalf("MigrateIn: %v", inErr)
	}
	w.Own(inc.Runtime)
	return inc
}

// TestForkAttackSingleChannel: the source enclave builds exactly one secure
// channel; a second target's hello is refused in-enclave (P-5).
func TestForkAttackSingleChannel(t *testing.T) {
	w := sim.NewTestWorld(t, sim.Config{Machines: 3})
	dep := w.Deploy(testapps.CounterApp(1))
	src, err := w.Launch(dep, 0)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := core.Prepare(src, w.Opts()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Dump(src, w.Opts()); err != nil {
		t.Fatal(err)
	}

	// Two would-be targets on different machines.
	helloFor := func(host int) []byte {
		rt, err := enclave.BuildSigned(w.Hosts[host], dep.App, dep.Sig)
		if err != nil {
			t.Fatal(err)
		}
		w.Own(rt)
		res, err := rt.CtlCall(enclave.SelCtlTgtBegin, enclave.SharedReqOff)
		if err != nil {
			t.Fatal(err)
		}
		out, err := rt.ReadShared(enclave.SharedReqOff, res[0])
		if err != nil {
			t.Fatal(err)
		}
		report, err := enclave.UnmarshalReport(out[:enclave.ReportWireSize])
		if err != nil {
			t.Fatal(err)
		}
		quote, err := rt.Machine().QuoteReport(report)
		if err != nil {
			t.Fatal(err)
		}
		return append(enclave.MarshalQuote(quote), out[enclave.ReportWireSize:]...)
	}

	if _, err := core.SourceChannel(src, w.Service, helloFor(1)); err != nil {
		t.Fatalf("first channel: %v", err)
	}
	_, err = core.SourceChannel(src, w.Service, helloFor(2))
	var ee *enclave.EnclaveError
	if !errors.As(err, &ee) {
		t.Fatalf("second channel: err = %v, want in-enclave channel-used refusal", err)
	}
}

// wires are the transports the adversary tests run over: the in-process
// pipe and a loopback TCP connection, the two production carries.
// pipePair is an in-process pipe whose ends close when t ends, so no frame
// stays queued in a pipe no one reads.
func pipePair(t *testing.T) (core.Transport, core.Transport) {
	a, b := core.NewPipe()
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

var wires = []struct {
	name string
	pair func(t *testing.T) (core.Transport, core.Transport)
}{
	{"pipe", pipePair},
	{"tcp", tcpPair},
}

func tcpPair(t *testing.T) (core.Transport, core.Transport) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	if srv == nil {
		t.Fatal("accept failed")
	}
	t1, t2 := core.NewConnTransport(cli), core.NewConnTransport(srv)
	t.Cleanup(func() { _ = t1.Close(); _ = t2.Close() })
	return t1, t2
}

// migrateOver runs MigrateOut over src against a MigrateIn on host 1 over
// dst and returns both outcomes.
func migrateOver(w *sim.World, rt *enclave.Runtime, src, dst core.Transport) (inc *core.Incoming, outErr, inErr error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inc, inErr = core.MigrateIn(w.Hosts[1], w.Registry, dst, w.Opts())
	}()
	_, outErr = core.MigrateOut(rt, src, w.Opts())
	wg.Wait()
	if inc != nil {
		w.Own(inc.Runtime)
	}
	return inc, outErr, inErr
}

// TestReplayAttackBlocked: a full wire capture of a successful migration is
// useless against a fresh enclave instance — the new instance's DH/nonce
// differ, so the recorded channel signature and sealed key never verify
// (P-4: "Resending all the network packets to a target enclave cannot
// launch a replay attack successfully"). The capture holds the checkpoint
// as the frames production sends, replayed in wire order.
func TestReplayAttackBlocked(t *testing.T) {
	for _, wire := range wires {
		t.Run(wire.name, func(t *testing.T) {
			w := sim.NewTestWorld(t, sim.Config{Machines: 3})
			dep := w.Deploy(testapps.CounterApp(1))
			src, err := w.Launch(dep, 0)
			if err != nil {
				t.Fatal(err)
			}
			t1, t2 := wire.pair(t)
			rec := &Recorder{Transport: t1}
			if _, outErr, inErr := migrateOver(w, src, rec, t2); outErr != nil || inErr != nil {
				t.Fatalf("clean migration: out %v, in %v", outErr, inErr)
			}
			if rec.Frames == 0 {
				t.Fatal("the capture holds no frame: the checkpoint did not cross the recorder")
			}

			// Replay the captured source->target stream at a fresh victim.
			replayer := NewReplayer(rec.Sent)
			_, err = core.MigrateIn(w.Hosts[2], w.Registry, replayer, w.Opts())
			if err == nil {
				t.Fatal("replayed migration was accepted — fork/rollback possible")
			}
			// The victim got as far as the replayed channel response: the
			// checkpoint frames replayed in step and the refusal is the
			// enclave's, not a desynchronised script.
			var ee *enclave.EnclaveError
			if !errors.As(err, &ee) {
				t.Fatalf("replay refused by %v, want an in-enclave refusal", err)
			}
		})
	}
}

// TestTamperedCheckpointRejected: integrity (P-2) — one flipped bit
// anywhere in the checkpoint, which crosses the wire as FrameBlob segments,
// fails the migration on both sides and leaves no copy on the target. A
// flip the target's untrusted host can see (the plaintext header) stops the
// migration before the key release and the source resumes; one only the
// enclave can see (ciphertext, tag) is caught after the source has
// self-destroyed — the instance is lost rather than forked (Sec. V-B).
func TestTamperedCheckpointRejected(t *testing.T) {
	small := func() *enclave.App { return testapps.CounterApp(1) }
	// A checkpoint of at least three 256 KiB segments.
	big := func() *enclave.App { return workload.KVApp(768<<10, 1) }
	for _, tc := range []struct {
		name       string
		app        func() *enclave.App
		flip       int
		segments   int // the checkpoint must cross in at least this many
		srcResumes bool
	}{
		{"header", small, 8, 1, true},
		{"body", small, 4096, 1, false},
		{"last segment", big, -1, 3, false},
		{"second segment", big, 256<<10 + 17, 3, false},
	} {
		for _, wire := range wires {
			t.Run(tc.name+"/"+wire.name, func(t *testing.T) {
				w := sim.NewTestWorld(t, sim.Config{Machines: 2})
				dep := w.Deploy(tc.app())
				src, err := w.Launch(dep, 0)
				if err != nil {
					t.Fatal(err)
				}

				t1, t2 := wire.pair(t)
				rec := &Recorder{Transport: t1}
				tam := &Tamperer{Transport: rec, Kind: core.MsgCheckpoint, BitFlip: tc.flip}
				_, outErr, inErr := migrateOver(w, src, tam, t2)
				if inErr == nil {
					t.Fatal("target accepted a tampered checkpoint")
				}
				if outErr == nil {
					t.Fatal("source believed a migration whose target rejected the checkpoint")
				}
				if tam.FrameFlips != 1 {
					t.Fatalf("tamperer altered %d FrameBlob segments, want 1: the checkpoint no longer crosses it as frames", tam.FrameFlips)
				}
				if rec.Frames < tc.segments {
					t.Fatalf("checkpoint crossed in %d segments, want >= %d", rec.Frames, tc.segments)
				}
				_, err = src.ECall(0, 0)
				if tc.srcResumes && err != nil {
					t.Fatalf("source did not resume after a refusal before the key release: %v", err)
				}
				if !tc.srcResumes && !errors.Is(err, enclave.ErrDestroyed) {
					t.Fatalf("source after a refusal past the key release: %v, want ErrDestroyed", err)
				}
			})
		}
	}
}

// TestCSSAForgeryRefused: the host rebuilds the wrong CSSA values; the
// in-enclave Step-4 verification refuses to resume (P-6, Sec. IV-C).
func TestCSSAForgeryRefused(t *testing.T) {
	w := sim.NewTestWorld(t, sim.Config{Machines: 2})
	dep := w.Deploy(testapps.CounterApp(2))
	src, err := w.Launch(dep, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt a long ecall so the checkpoint carries a live context
	// (migK = 2 for the worker), once worker 1 sees it counting inside.
	go func() { _, _ = src.ECall(0, testapps.CounterRun, 10_000_000) }()
	if err := testapps.AwaitCount(src); err != nil {
		t.Fatal(err)
	}

	opts := w.Opts()
	if _, err := core.Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err := core.Dump(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := enclave.UnmarshalHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	hasLive := false
	for _, k := range hdr.MigK {
		if k > 0 {
			hasLive = true
		}
	}
	if !hasLive {
		t.Fatal("no live worker context in checkpoint; forgery test needs one")
	}

	// Target side with a lying runtime: it claims every CSSA is zero.
	tgt, err := enclave.BuildSigned(w.Hosts[1], dep.App, dep.Sig)
	if err != nil {
		t.Fatal(err)
	}
	w.Own(tgt)
	// Give the target the key through a legitimate channel first.
	if err := core.EstablishChannel(src, tgt, w.Service); err != nil {
		t.Fatal(err)
	}
	forged := append([]uint32(nil), hdr.MigK...)
	for i := range forged {
		forged[i] = 0 // the lie: "no CSSA rebuild needed"
	}
	if err := tgt.RebuildCSSA(forged); err != nil {
		t.Fatal(err)
	}
	if err := tgt.WriteShared(enclave.SharedCkptOff, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.CtlCall(enclave.SelCtlTgtRestore, enclave.SharedCkptOff, uint64(len(blob)), 0); err != nil {
		t.Fatalf("restore itself should succeed (memory only): %v", err)
	}
	// Without entering the handlers at the right CSSA the verification
	// must refuse — and even if the host enters them, the hardware CSSA is
	// 0, the stub records 0 != migK, and verification still refuses.
	_, err = tgt.CtlCall(enclave.SelCtlTgtVerify)
	var ee *enclave.EnclaveError
	if !errors.As(err, &ee) {
		t.Fatalf("verify after CSSA forgery: err = %v, want in-enclave refusal", err)
	}
}

// TestSnoopSeesNoSecrets: a passive observer of the wire and of untrusted
// shared memory never sees enclave state in plaintext (P-1).
func TestSnoopSeesNoSecrets(t *testing.T) {
	for _, wire := range wires {
		t.Run(wire.name, func(t *testing.T) {
			w := sim.NewTestWorld(t, sim.Config{Machines: 2})
			dep := w.Deploy(testapps.CounterApp(1))
			src, err := w.Launch(dep, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Plant a recognisable secret in enclave memory via the counter:
			// the counter value itself is the secret pattern.
			const secret = 0x53454352_45543432 // "SECRET42"
			if _, err := src.ECall(0, testapps.CounterAdd, secret); err != nil {
				t.Fatal(err)
			}
			needle := []byte{0x42, 0x54, 0x45, 0x52, 0x43, 0x45, 0x53} // LE bytes of the value

			t1, t2 := wire.pair(t)
			rec := &Recorder{Transport: t1}
			inc, outErr, inErr := migrateOver(w, src, rec, t2)
			if outErr != nil || inErr != nil {
				t.Fatalf("migration: out %v, in %v", outErr, inErr)
			}
			if rec.Frames == 0 {
				t.Fatal("the snooper saw no frame: the checkpoint did not cross the recorder")
			}
			if rec.ContainsPlaintext(needle) {
				t.Fatal("secret enclave state appeared in plaintext on the wire")
			}
			// The state did move (ciphertext was the real thing).
			res, err := inc.Runtime.ECall(0, testapps.CounterGet)
			if err != nil {
				t.Fatal(err)
			}
			if res[0] != secret {
				t.Fatalf("migrated counter = %x, want %x", res[0], secret)
			}
			// And the shared (untrusted) regions never held it either.
			for _, sh := range []interface{ Load(uint64, []byte) error }{src.Shared(), inc.Runtime.Shared()} {
				buf := make([]byte, 256*1024)
				if err := sh.Load(0, buf); err == nil && bytes.Contains(buf, needle) {
					t.Fatal("secret appeared in untrusted shared memory")
				}
			}
		})
	}
}

// TestRecorderFindsPlaintextAcrossSegments: the snooper's own instrument —
// a needle split over two frames of the capture is still found, and one
// that never crossed is not.
func TestRecorderFindsPlaintextAcrossSegments(t *testing.T) {
	t1, t2 := pipePair(t)
	rec := &Recorder{Transport: t1}
	go func() {
		for {
			f, err := t2.RecvFrame()
			if err != nil {
				return
			}
			f.Release()
		}
	}()
	for _, seg := range []string{"....SEC", "RET42...."} {
		if err := rec.SendFrame(&core.PageFrame{Kind: core.FrameBlob, Data: []byte(seg)}); err != nil {
			t.Fatal(err)
		}
	}
	_ = t1.Close()
	if !rec.ContainsPlaintext([]byte("SECRET42")) {
		t.Fatal("needle straddling two frames not found")
	}
	if rec.ContainsPlaintext([]byte("SECRET43")) {
		t.Fatal("found a needle that never crossed")
	}
}
