package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/testapps"
)

// TestTargetRefusesSecondRestore: the restored instance is not a virgin
// enclave any more; feeding it the checkpoint again (a target-side rollback)
// is refused in-enclave.
func TestTargetRefusesSecondRestore(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	if _, err := src.ECall(0, testapps.CounterAdd, 9); err != nil {
		t.Fatal(err)
	}

	// Capture the blob on the way through.
	opts := w.opts()
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err := Dump(src, opts)
	if err != nil {
		t.Fatal(err)
	}
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
	_ = reg

	// Roll the live instance back to the checkpoint: every control step of
	// the restore path must refuse (state is stNormal, restored flag set).
	hdr, _, err := enclave.UnmarshalHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Runtime.WriteShared(enclave.SharedCkptOff, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(inc.Runtime, hdr, len(blob), opts); err == nil {
		t.Fatal("live instance accepted a second restore (rollback)")
	}
	// And it cannot become a migration target again either.
	if _, err := inc.Runtime.CtlCall(enclave.SelCtlTgtBegin, enclave.SharedReqOff); err == nil {
		t.Fatal("restored instance re-entered the virgin target path")
	}
	// State unharmed by the attempts.
	res, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 9 {
		t.Fatalf("state damaged by refused rollback: %d", res[0])
	}
}

// TestCheckpointForWrongImageRefused: a checkpoint from image A cannot be
// restored into image B even when both belong to the same owner — the
// measurement is bound into the header AEAD and checked in-enclave.
func TestCheckpointForWrongImageRefused(t *testing.T) {
	w := newWorld(t)
	appA := testapps.CounterApp(1)
	src := w.launch(t, appA)
	if _, err := Prepare(src, w.opts()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Dump(src, w.opts()); err != nil {
		t.Fatal(err)
	}

	appB := testapps.BankApp(1)
	w.owner.ConfigureApp(appB)
	depB := NewDeployment(appB, w.owner)
	tgt, err := enclave.BuildSigned(w.hostB, depB.App, depB.Sig)
	if err != nil {
		t.Fatal(err)
	}
	own(t, tgt)
	if err := EstablishChannel(src, tgt, w.service); err == nil {
		t.Fatal("source built a channel to a different image")
	}
}

// TestMigrationDuringOCall: a worker parked outside the enclave in an ocall
// reads as free at the quiescent point; its continuation lives in the TLS
// page and completes after a cancelled migration.
func TestMigrationDuringOCall(t *testing.T) {
	w := newWorld(t)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	app := testapps.EchoApp(func(rt *enclave.Runtime, id, arg, length uint64) (uint64, error) {
		entered <- struct{}{}
		<-release
		return arg * 3, nil
	})
	src := w.launch(t, app)

	done := make(chan [8]uint64, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := src.ECall(0, testapps.EchoOCall, 14)
		done <- res
		errCh <- err
	}()
	<-entered // the worker is now outside the enclave, mid-ocall

	opts := w.opts()
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Dump(src, opts); err != nil {
		t.Fatal(err)
	}
	// Cancel and release the ocall: the parked continuation must finish.
	if err := Cancel(src); err != nil {
		t.Fatal(err)
	}
	close(release)
	res := <-done
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if res[0] != 42 {
		t.Fatalf("ocall continuation result = %d, want 42", res[0])
	}
}

// TestVMConsistencyAcrossEnclaves: the Sec. VII-A concern — a VM checkpoint
// containing multiple interrelated enclaves stays mutually consistent
// because every enclave independently reaches its quiescent point before
// its dump. Modelled as two bank enclaves whose combined invariant is
// checked after a joint migration.
func TestVMConsistencyAcrossEnclaves(t *testing.T) {
	w := newWorld(t)
	app := testapps.BankApp(2)
	w.owner.ConfigureApp(app)
	dep, reg := w.deploy(app)

	const initBalance = 500_000
	var srcs []*enclave.Runtime
	var dones []chan error
	for i := 0; i < 2; i++ {
		rt, err := enclave.BuildSigned(w.hostA, dep.App, dep.Sig)
		if err != nil {
			t.Fatal(err)
		}
		own(t, rt)
		if err := w.owner.Provision(rt); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.ECall(0, testapps.BankInit, initBalance); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, rt)
	}
	for _, rt := range srcs {
		done := make(chan error, 1)
		go func() {
			_, err := rt.ECall(0, testapps.BankTransfer, 1, 100_000)
			done <- err
		}()
		dones = append(dones, done)
	}
	// Worker 1 reads account A until each transfer has debited it: both are
	// inside their enclaves, past the entry gate.
	for _, rt := range srcs {
		if err := testapps.AwaitDebit(rt, initBalance); err != nil {
			t.Fatal(err)
		}
	}

	// Migrate both enclaves (the VM's enclave set) concurrently.
	var wg sync.WaitGroup
	incs := make([]*Incoming, 2)
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src *enclave.Runtime) {
			defer wg.Done()
			t1, t2 := testPipe(t)
			inDone := make(chan struct{})
			go func() {
				defer close(inDone)
				inc, err := MigrateIn(w.hostB, reg, t2, w.opts())
				if err != nil {
					t.Errorf("in %d: %v", i, err)
				}
				incs[i] = inc
			}()
			if _, err := MigrateOut(src, t1, w.opts()); err != nil {
				t.Errorf("out %d: %v", i, err)
			}
			<-inDone
		}(i, src)
	}
	wg.Wait()
	for _, done := range dones {
		if err := <-done; !errors.Is(err, enclave.ErrDestroyed) {
			t.Fatalf("source transfer: %v", err)
		}
	}
	// Drain in-flight transfers on the targets, then check the invariant
	// of EVERY enclave in the "VM checkpoint".
	for i, inc := range incs {
		if inc == nil {
			t.Fatal("missing incoming")
		}
		own(t, inc.Runtime)
		for r := range inc.Results {
			if r.Err != nil {
				t.Fatalf("enclave %d resumed transfer: %v", i, r.Err)
			}
		}
		res, err := inc.Runtime.ECall(1, testapps.BankSum)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != 2*initBalance {
			t.Fatalf("enclave %d invariant violated: %d", i, res[0])
		}
	}
}

// TestTransportFailureBeforeKeyRelease: if the network dies before the
// source releases Kmigrate, the migration cancels cleanly and the source
// enclave resumes — no state lost, no instance destroyed.
func TestTransportFailureBeforeKeyRelease(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	if _, err := src.ECall(0, testapps.CounterAdd, 55); err != nil {
		t.Fatal(err)
	}
	t1, t2 := testPipe(t)
	// The "target" accepts the image and checkpoint, then vanishes.
	go func() {
		_, _ = t2.Recv()
		_, _ = t2.Recv()
		_ = t2.Close()
	}()
	_, err := MigrateOut(src, t1, w.opts())
	if err == nil {
		t.Fatal("migration succeeded over a dead transport")
	}
	// The source cancelled: it is alive and the state intact.
	res, err := src.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatalf("source after cancelled migration: %v", err)
	}
	if res[0] != 55 {
		t.Fatalf("state after cancelled migration: %d", res[0])
	}
	// And a later migration still works.
	_, reg := w.deploy(app)
	_, inc := runMigration(t, src, w.hostB, reg, w.opts())
	got, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 55 {
		t.Fatalf("second migration state: %d", got[0])
	}
}

// TestSelfDestroyOrdering (white box): once ctlSrcRelease returns, the
// enclave is destroyed even if the released key message is then dropped —
// P-5 fails closed, never open.
func TestSelfDestroyOrdering(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	opts := w.opts()
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Dump(src, opts); err != nil {
		t.Fatal(err)
	}
	tgt, err := enclave.BuildSigned(w.hostB, reg.mustLookup("counter").App, reg.mustLookup("counter").Sig)
	if err != nil {
		t.Fatal(err)
	}
	own(t, tgt)
	hello, err := TargetHello(tgt)
	if err != nil {
		t.Fatal(err)
	}
	chanOut, err := SourceChannel(src, w.service, hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAndCall(tgt, enclave.SelCtlTgtChannel, chanOut); err != nil {
		t.Fatal(err)
	}
	// Release the key... and "lose" it.
	if _, _, err := ReleaseKey(src); err != nil {
		t.Fatal(err)
	}
	// The source is dead regardless: nobody gets two instances, even at
	// the price of losing this one (the paper accepts that as DoS).
	if _, err := src.ECall(0, testapps.CounterGet); !errors.Is(err, enclave.ErrDestroyed) {
		t.Fatalf("source alive after key release: %v", err)
	}
	// The runtime refuses that call from its own dead flag. A host that
	// enters the worker on the machine anyway meets the enclave's own
	// refusal: the entry stub (or the spin region, the global flag still
	// being up) sees the self-destroy and exits dead (R7 = 4, the enclave's
	// codeDead) without running the call.
	res, err := src.Machine().EENTER(src.Machine().NewLP(), src.EnclaveID(), src.Layout().TCSPage(1),
		[]uint64{testapps.CounterGet}, src.Shared())
	if err != nil || res.Kind != sgx.ExitEExit || res.Regs[7] != 4 {
		t.Fatalf("fresh entry into the released source: %+v, %v; want an EEXIT with the dead code", res, err)
	}
	// And a second release (replayed request) is refused.
	if _, _, err := ReleaseKey(src); err == nil {
		t.Fatal("key released twice")
	}
}

// TestResumedCallIsNotQuiescent: a call migrated mid-way is resumed on the
// target under a fresh handler entry, whose exit hands the call back the
// local flag that entry found. The restored thread table says spin there
// (what the source's parked worker read), so a restore that left it would
// have the resumed call run reading as parked, and the next migration's
// quiescence poll pass while it still wrote memory: its dump then carried a
// stale context, and the call ran twice or lost steps. Here the resumed
// call is held inside one step on the target; a Prepare there must find
// the enclave busy.
func TestResumedCallIsNotQuiescent(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(2)
	var steps atomic.Int64
	var armed atomic.Bool
	entered, released := make(chan struct{}, 1), make(chan struct{})
	defer func() {
		select {
		case <-released:
		default:
			close(released)
		}
	}()
	app.ECalls = append(app.ECalls, func(*enclave.Call) enclave.AppStatus {
		if !armed.Load() {
			steps.Add(1)
			return enclave.AppRunning
		}
		entered <- struct{}{}
		<-released
		return enclave.AppDone
	})
	sel := uint64(len(app.ECalls) - 1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	go func() { _, _ = src.ECall(0, sel) }()
	for steps.Load() == 0 {
		runtime.Gosched()
	}
	_, inc := runMigration(t, src, w.hostB, reg, w.opts())
	// After the deferred release: Destroy waits for the held call to end.
	t.Cleanup(func() { _ = inc.Runtime.Destroy() })
	armed.Store(true)
	<-entered // the resumed call is inside a step on the target

	opts := w.opts()
	opts.PollBudget = 5 * time.Millisecond
	if _, err := Prepare(inc.Runtime, opts); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("Prepare with the resumed call held inside = %v, want ErrNotQuiescent", err)
	}
	close(released)
	for r := range inc.Results {
		if r.Err != nil {
			t.Fatalf("resumed call on worker %d: %v", r.Worker, r.Err)
		}
	}
}
