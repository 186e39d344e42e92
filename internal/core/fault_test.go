package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/telemetry"
	"repro/internal/testapps"
)

// ecallResult is what an ecall returned.
type ecallResult struct {
	regs [sgx.NumRegs]uint64
	err  error
}

// countInside starts CounterRun(iterations) on worker 0 of rt, a counter
// enclave with a second worker, and returns once worker 1 reads a nonzero
// count: the call is inside the enclave, past the entry gate, so a
// migration requested from here on meets a busy worker. The call's result
// arrives on the channel.
func countInside(t *testing.T, rt *enclave.Runtime, iterations uint64) <-chan ecallResult {
	t.Helper()
	done := make(chan ecallResult, 1)
	go func() {
		regs, err := rt.ECall(0, testapps.CounterRun, iterations)
		done <- ecallResult{regs, err}
	}()
	if err := testapps.AwaitCount(rt); err != nil {
		t.Fatal(err)
	}
	return done
}

// withHold appends to app an ecall whose step blocks until release is
// closed, and returns a function that starts it on worker 1 of an enclave
// of app and returns once the call is inside. A worker in that step is busy
// between two interrupt points, so it cannot park: no Prepare quiesces the
// enclave before the release, and a poll budget runs out for certain. The
// held call's error arrives on the channel once released.
func withHold(t *testing.T, app *enclave.App) (hold func(rt *enclave.Runtime) <-chan error, release func()) {
	entered, released := make(chan struct{}, 1), make(chan struct{})
	app.ECalls = append(app.ECalls, func(*enclave.Call) enclave.AppStatus {
		entered <- struct{}{}
		<-released
		return enclave.AppDone
	})
	sel := uint64(len(app.ECalls) - 1)
	var once sync.Once
	release = func() { once.Do(func() { close(released) }) }
	t.Cleanup(release)
	return func(rt *enclave.Runtime) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := rt.ECall(1, sel)
			done <- err
		}()
		select {
		case <-entered:
		case err := <-done:
			t.Fatalf("held ecall never entered: %v", err)
		}
		return done
	}, release
}

// waitGoroutines polls until the goroutine count has dropped back to at most
// max (migration helpers park in channel receives briefly after a fault).
func waitGoroutines(t *testing.T, max int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= max {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, want <= %d\n%s", n, max, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// measureMigrationOps runs one clean migration with counting (non-failing)
// wrappers on both halves and reports how many transport operations each
// side performs — the sweep range for the fault tests.
func measureMigrationOps(t *testing.T) (srcOps, tgtOps int) {
	t.Helper()
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	t1, t2 := testPipe(t)
	fs := NewFaultyTransport(t1, 0, false)
	ft := NewFaultyTransport(t2, 0, false)
	var (
		inc   *Incoming
		inErr error
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		inc, inErr = MigrateIn(w.hostB, reg, ft, w.opts())
	}()
	if _, err := MigrateOut(src, fs, w.opts()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if inErr != nil {
		t.Fatal(inErr)
	}
	for range inc.Results {
	}
	if err := inc.Runtime.Destroy(); err != nil {
		t.Fatal(err)
	}
	return fs.Ops(), ft.Ops()
}

func TestFaultSweepSourceSide(t *testing.T) { sweepMigrationFaults(t, true) }
func TestFaultSweepTargetSide(t *testing.T) { sweepMigrationFaults(t, false) }

// sweepMigrationFaults drives a full migration through every abort point of
// one protocol half and asserts the invariants the lifecycle fixes protect:
// the source either resumes with intact state or (only after key release)
// has self-destroyed, the target never keeps a half-built enclave, and no
// goroutine is left parked on the dead channel.
func sweepMigrationFaults(t *testing.T, sourceSide bool) {
	srcOps, tgtOps := measureMigrationOps(t)
	n := tgtOps
	if sourceSide {
		n = srcOps
	}
	if n < 3 {
		t.Fatalf("implausible op count %d", n)
	}
	maxGoroutines := runtime.NumGoroutine() + 2
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("failAt=%d", k), func(t *testing.T) {
			w := newWorld(t)
			app := testapps.CounterApp(1)
			w.owner.ConfigureApp(app)
			_, reg := w.deploy(app)
			src := w.launch(t, app)
			if _, err := src.ECall(0, testapps.CounterAdd, 7); err != nil {
				t.Fatal(err)
			}

			t1, t2 := testPipe(t)
			var ts, td Transport = t1, t2
			if sourceSide {
				ts = NewFaultyTransport(t1, k, true)
			} else {
				td = NewFaultyTransport(t2, k, true)
			}
			var (
				inc   *Incoming
				inErr error
				wg    sync.WaitGroup
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				inc, inErr = MigrateIn(w.hostB, reg, td, w.opts())
			}()
			_, outErr := MigrateOut(src, ts, w.opts())
			wg.Wait()
			if outErr == nil && inErr == nil {
				t.Fatal("injected fault never surfaced on either side")
			}

			// Target: either the migration failed there (its enclave is
			// already destroyed) or it completed and holds the state.
			if inErr == nil {
				for range inc.Results {
				}
				if err := inc.Runtime.Destroy(); err != nil {
					t.Fatal(err)
				}
			}

			// Source: before key release every fault cancels the migration
			// and the enclave resumes with intact state; after release it
			// has self-destroyed (the paper accepts the loss, never a fork).
			res, err := src.ECall(0, testapps.CounterGet)
			switch {
			case err == nil:
				if res[0] != 7 {
					t.Fatalf("source state after fault: %d, want 7", res[0])
				}
			case errors.Is(err, enclave.ErrDestroyed):
				// Post-release window.
			default:
				t.Fatalf("source in broken state after fault: %v", err)
			}
			if err := src.Destroy(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, maxGoroutines)
		})
	}
}

// TestMigrateOutPrepareFailureResumesSource (regression): a MigrateOut whose
// Prepare phase fails — here via an impossible poll budget against a busy
// worker — must leave the enclave running normally, not stranded with the
// migration flag raised and its workers parked. Nobody reads the other end
// of the pipe: telling the peer must not block either.
func TestMigrateOutPrepareFailureResumesSource(t *testing.T) { prepareFailure(t, false) }

// TestMigrateOutPrepareFailureAbortsTarget: the image announcement goes out
// before the enclave is quiesced, so by the time the poll budget runs out a
// live target has built its virgin enclave and is waiting for a checkpoint.
// The source must tell it: the target returns ErrAborted — from the abort
// message, the transport stays open — and its enclave destroyed, which the
// world's ledger check confirms.
// (Before the reorder nothing had been sent at this point and the target
// held nothing.)
func TestMigrateOutPrepareFailureAbortsTarget(t *testing.T) { prepareFailure(t, true) }

func prepareFailure(t *testing.T, liveTarget bool) {
	w := newWorld(t)
	app := testapps.CounterApp(2)
	hold, release := withHold(t, app)
	w.owner.ConfigureApp(app)
	_, reg := w.deploy(app)
	src := w.launch(t, app)

	// Worker 0 counts and worker 1 is held inside one step, so the zero
	// budget runs out whenever worker 0 parks.
	const iterations = 5_000_000
	done := countInside(t, src, iterations)
	held := hold(src)

	t1, t2 := testPipe(t)
	inErr := make(chan error, 1)
	if liveTarget {
		go func() {
			_, err := MigrateIn(w.hostB, reg, t2, w.opts())
			inErr <- err
		}()
	}
	opts := w.opts()
	opts.PollBudget = time.Nanosecond
	opts.PollInterval = time.Microsecond
	if _, err := MigrateOut(src, t1, opts); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("MigrateOut with zero budget: %v, want ErrNotQuiescent", err)
	}
	if liveTarget {
		if err := <-inErr; !errors.Is(err, ErrAborted) {
			t.Fatalf("MigrateIn after the source gave up: %v, want ErrAborted", err)
		}
	}
	// The busy ecalls complete: the workers were resumed.
	release()
	if err := <-held; err != nil {
		t.Fatalf("held ecall after failed MigrateOut: %v", err)
	}
	if r := <-done; r.err != nil {
		t.Fatalf("in-flight ecall after failed MigrateOut: %v", r.err)
	}
	res, err := src.ECall(0, testapps.CounterGet)
	if err != nil || res[0] != iterations {
		t.Fatalf("source state after failed MigrateOut: %v %v", res, err)
	}
	// And the enclave can still migrate for real.
	_, inc := runMigration(t, src, w.hostB, reg, w.opts())
	got, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil || got[0] != iterations {
		t.Fatalf("migration after recovered failure: %v %v", got, err)
	}
}

// TestMigrateInFailureFreesEPC (regression): every MigrateIn failure after
// the virgin target enclave is built must free its EPC frames.
func TestMigrateInFailureFreesEPC(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	w.owner.ConfigureApp(app)
	_, reg := w.deploy(app)
	src := w.launch(t, app)

	opts := w.opts()
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err := Dump(src, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A "source" that delivers image + checkpoint — enough for the target to
	// build the enclave — then vanishes mid-channel.
	t1, t2 := testPipe(t)
	go func() {
		mr := src.Measurement()
		_ = t1.Send(Message{Kind: MsgImage, Blob: imageBlob(app.Name, mr, src.Layout().Threads)})
		_ = sendBulk(t1, Message{Kind: MsgCheckpoint, Blob: blob})
		_, _ = t1.Recv() // the target's hello
		_ = t1.Close()
	}()
	if _, err := MigrateIn(w.hostB, reg, t2, opts); err == nil {
		t.Fatal("MigrateIn succeeded over a dead channel")
	}

	// The source was never told; cancel and carry on.
	if err := Cancel(src); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ECall(0, testapps.CounterGet); err != nil {
		t.Fatalf("source after cancelled migration: %v", err)
	}

	// The target builds on the image announcement alone, so a checkpoint it
	// has to refuse now finds an enclave already standing. Each refusal must
	// come after the build, tell the peer, and free the EPC.
	hdr, _, err := enclave.UnmarshalHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	foreign := hdr
	foreign.Measurement[0] ^= 1
	tooMany := uint32(enclave.MaxCheckpointSize(app.Layout())/bulkSegment + 2)
	bulk := func(b []byte) func(Transport) {
		return func(p Transport) { _ = sendBulk(p, Message{Kind: MsgCheckpoint, Blob: b}) }
	}
	for _, tc := range []struct {
		name string
		send func(Transport)
		want error
	}{
		{"more frames than the layout allows", func(p Transport) { _ = p.Send(Message{Kind: MsgCheckpoint, Frames: tooMany}) }, ErrProtocol},
		{"bad header", bulk(blob[:20]), nil},
		{"header for a different measurement", bulk(enclave.MarshalHeader(foreign)), ErrProtocol},
	} {
		tr := telemetry.New()
		root := tr.Begin("test")
		opts := w.opts()
		opts.Trace = root
		t1, t2 := testPipe(t)
		reply := make(chan [2]MsgKind, 1)
		go func() {
			_ = t1.Send(Message{Kind: MsgImage, Blob: imageBlob(app.Name, src.Measurement(), src.Layout().Threads)})
			tc.send(t1)
			hello, _ := t1.Recv()
			m, _ := t1.Recv()
			reply <- [2]MsgKind{hello.Kind, m.Kind}
		}()
		_, err := MigrateIn(w.hostB, reg, t2, opts)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: MigrateIn = %v, want %v", tc.name, err, tc.want)
		}
		if got := <-reply; got != [2]MsgKind{MsgHello, MsgAbort} {
			t.Fatalf("%s: the peer got messages %v, want the hello and then an abort", tc.name, got)
		}
		root.End()
		if built := tr.ByName("core.target.build"); len(built) != 1 {
			t.Fatalf("%s: %d build spans; the refusal was meant to follow the build", tc.name, len(built))
		}
		_ = t1.Close()
	}
}

// TestParseImageBlobAdversarial (regression): the MsgImage length prefixes
// arrive from the untrusted network; crafted values must neither wrap the
// bounds arithmetic nor drive giant allocations.
func TestParseImageBlobAdversarial(t *testing.T) {
	var mr [32]byte
	for i := range mr {
		mr[i] = byte(i)
	}
	good := imageBlob("counter", mr, 4)
	name, gotMR, threads, err := parseImageBlob(good)
	if err != nil || name != "counter" || gotMR != mr || threads != 4 {
		t.Fatalf("round trip: %q %v %d %v", name, gotMR, threads, err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"short":     {1, 0, 0},
		"truncated": good[:len(good)-5],
		// n = 0xFFFFFFFC makes 4+n+32+4 wrap to 36 in 32-bit arithmetic,
		// passing a naive length check and then slicing out of range.
		"wraparound": append([]byte{0xFC, 0xFF, 0xFF, 0xFF}, good[4:]...),
		"huge-name": func() []byte {
			b := append([]byte(nil), good...)
			b[0], b[1] = 0xFF, 0x7F // 32767 > maxImageNameLen
			return b
		}(),
		"huge-threads": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-4], b[len(b)-3], b[len(b)-2], b[len(b)-1] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		}(),
	}
	for label, blob := range cases {
		if _, _, _, err := parseImageBlob(blob); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", label, err)
		}
	}
}

// TestRestoreHonorsPollBudget (regression): the CSSA-verify wait used to be
// a hardcoded 5 s; it must honor Options.PollBudget. A host that lies about
// the rebuilt CSSA values (the attack-path forgery) keeps verification
// failing, so the restore must give up after the configured budget.
func TestRestoreHonorsPollBudget(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(2)
	src := w.launch(t, app)
	dep, _ := w.deploy(app)

	// A live worker context so the checkpoint records a nonzero CSSA.
	ecallDone := countInside(t, src, 100_000_000)

	opts := w.opts()
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err := Dump(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := enclave.UnmarshalHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	live := false
	for _, k := range hdr.MigK {
		live = live || k > 0
	}
	if !live {
		t.Fatal("checkpoint carries no live context; the forgery needs one")
	}

	tgt, err := enclave.BuildSigned(w.hostB, dep.App, dep.Sig)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tgt.Destroy() }()
	if err := EstablishChannel(src, tgt, w.service); err != nil {
		t.Fatal(err)
	}
	<-ecallDone // the source self-destroyed at key release

	// The lying host claims no CSSA rebuild is needed: in-enclave
	// verification refuses forever.
	for i := range hdr.MigK {
		hdr.MigK[i] = 0
	}
	budget := 250 * time.Millisecond
	restOpts := &Options{PollBudget: budget, PollInterval: time.Millisecond}
	if err := tgt.WriteShared(enclave.SharedCkptOff, blob); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Restore(tgt, hdr, len(blob), restOpts)
	elapsed := time.Since(start)
	if !errors.Is(err, enclave.ErrVerifyFailed) {
		t.Fatalf("restore with forged CSSA: %v, want ErrVerifyFailed", err)
	}
	if elapsed < budget/2 || elapsed > 10*budget {
		t.Fatalf("verify wait %v ignores PollBudget %v", elapsed, budget)
	}
}
