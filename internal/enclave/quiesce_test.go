package enclave_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/testapps"
)

// quiesceWorld is a two-machine world with a two-worker counter enclave at
// 7 on the first machine, and what a host needs to enter its worker 0 by
// hand.
type quiesceWorld struct {
	*sim.World
	src    *enclave.Runtime
	frames int // the target machine's free EPC frames with nothing on it
	lp     *sgx.LP
	tcs    sgx.PageNum
}

func newQuiesceWorld(t *testing.T) *quiesceWorld {
	t.Helper()
	// A short quantum brings an entered worker back out of the spin
	// region by AEX, as a timer interrupt would.
	w := sim.NewTestWorld(t, sim.Config{Machines: 2, Quantum: 64})
	dep := w.Deploy(testapps.CounterApp(2))
	warm, err := enclave.BuildSigned(w.Hosts[1], dep.App, dep.Sig)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Destroy(); err != nil {
		t.Fatal(err)
	}
	src, err := w.Launch(dep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ECall(0, testapps.CounterAdd, 7); err != nil {
		t.Fatal(err)
	}
	return &quiesceWorld{World: w, src: src, frames: w.Hosts[1].Mgr.FreeFrames(), lp: src.Machine().NewLP(), tcs: src.Layout().TCSPage(1)}
}

// enterOnce makes the dump's quiescent-point hook enter worker 0 straight on
// the machine, ignoring the entry gate, the first time a dump reaches it.
// The entry parks in the spin region until the quantum takes it out.
func (q *quiesceWorld) enterOnce(t *testing.T) {
	entered := false
	enclave.SetDumpQuiescentHook(t, func() {
		if entered {
			return
		}
		entered = true
		res, err := q.src.Machine().EENTER(q.lp, q.src.EnclaveID(), q.tcs, []uint64{testapps.CounterGet}, q.src.Shared())
		if err != nil || res.Kind != sgx.ExitAEX {
			t.Errorf("the host's entry: %+v, %v; want it parked in the spin region until an AEX", res, err)
		}
	})
}

// migrate runs a migration of the source to the second machine; out is the
// source's side, run with the transport's source end.
func (q *quiesceWorld) migrate(out func(core.Transport) error) (*core.Incoming, error, error) {
	src, tgt := q.Pipe()
	type result struct {
		inc *core.Incoming
		err error
	}
	in := make(chan result, 1)
	go func() {
		inc, err := core.MigrateIn(q.Hosts[1], q.Registry, tgt, q.Opts())
		in <- result{inc, err}
	}()
	outErr := out(src)
	r := <-in
	if r.inc != nil {
		q.Own(r.inc.Runtime)
	}
	return r.inc, outErr, r.err
}

// finishEntered checks that the source survived a refused dump and runs the
// call enterOnce entered to its end there.
func (q *quiesceWorld) finishEntered(t *testing.T) {
	t.Helper()
	if q.src.Dead() {
		t.Fatal("source enclave dead after the refused dump")
	}
	m := q.src.Machine()
	res, err := m.ERESUME(q.lp, q.src.EnclaveID(), q.tcs, q.src.Shared())
	for err == nil && res.Kind == sgx.ExitAEX {
		res, err = m.ERESUME(q.lp, q.src.EnclaveID(), q.tcs, q.src.Shared())
	}
	if err != nil || res.Regs[0] != 7 {
		t.Fatalf("the entered call on the resumed source: counter %d, %v; want 7", res.Regs[0], err)
	}
}

func (q *quiesceWorld) migrateOut(t core.Transport) error {
	_, err := core.MigrateOut(q.src, t, q.Opts())
	return err
}

// TestDumpRefusedWhenWorkerEntersAfterQuiescence: a host that ignores the
// entry gate enters a worker straight on the machine once the source's dump
// has recorded its thread table. The dump refuses with "workers not
// quiescent" before it seals its final record, so no key is released: the
// source cancels and stays live — the call the host entered completes there
// — and the target frees the EPC it built on. The next migration of the
// same enclave goes through.
func TestDumpRefusedWhenWorkerEntersAfterQuiescence(t *testing.T) {
	q := newQuiesceWorld(t)
	q.enterOnce(t)
	_, outErr, inErr := q.migrate(q.migrateOut)
	var ee *enclave.EnclaveError
	if !errors.As(outErr, &ee) || !strings.Contains(ee.Error(), "workers not quiescent") {
		t.Fatalf("source = %v, want the dump's not-quiescent refusal", outErr)
	}
	if inErr == nil {
		t.Fatal("the target restored a checkpoint the source refused to finish")
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.Hosts[1].Mgr.FreeFrames() != q.frames {
		if time.Now().After(deadline) {
			t.Fatalf("target EPC: %d free frames, want %d", q.Hosts[1].Mgr.FreeFrames(), q.frames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	q.finishEntered(t)

	inc, outErr, inErr := q.migrate(q.migrateOut)
	if outErr != nil || inErr != nil {
		t.Fatalf("second migration: source %v, target %v", outErr, inErr)
	}
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 7 {
		t.Fatalf("migrated counter = %d, %v; want 7", res[0], err)
	}
}

// TestCoreDumpRefusedWhenWorkerEntersAfterQuiescence: the same entry during
// a core.Dump — the VM engine's path, whose blob stays on the host until it
// is sent — fails Dump with the same refusal. The caller cancels, as after
// any failed dump: the source stays live, the entered call completes there,
// and the next prepare and dump migrate the enclave.
func TestCoreDumpRefusedWhenWorkerEntersAfterQuiescence(t *testing.T) {
	q := newQuiesceWorld(t)
	q.enterOnce(t)
	opts := q.Opts()
	if _, err := core.Prepare(q.src, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err := core.Dump(q.src, opts)
	var ee *enclave.EnclaveError
	if !errors.As(err, &ee) || !strings.Contains(ee.Error(), "workers not quiescent") || blob != nil {
		t.Fatalf("Dump = %d bytes, %v; want the dump's not-quiescent refusal", len(blob), err)
	}
	if err := core.Cancel(q.src); err != nil {
		t.Fatal(err)
	}
	q.finishEntered(t)

	if _, err := core.Prepare(q.src, opts); err != nil {
		t.Fatal(err)
	}
	if blob, _, err = core.Dump(q.src, opts); err != nil {
		t.Fatalf("second Dump: %v", err)
	}
	inc, outErr, inErr := q.migrate(func(t core.Transport) error {
		_, err := core.MigrateOutPrepared(q.src, blob, t, opts)
		return err
	})
	if outErr != nil || inErr != nil {
		t.Fatalf("migration: source %v, target %v", outErr, inErr)
	}
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 7 {
		t.Fatalf("migrated counter = %d, %v; want 7", res[0], err)
	}
}

// TestOwnerCheckpointRefusedWhenWorkerEntersAfterQuiescence: the same
// entry during an owner's snapshot (core.OwnerCheckpoint) fails it with the
// same refusal, and the snapshot cancels: the enclave serves calls again
// and the entered call completes there.
func TestOwnerCheckpointRefusedWhenWorkerEntersAfterQuiescence(t *testing.T) {
	q := newQuiesceWorld(t)
	q.enterOnce(t)
	blob, err := core.OwnerCheckpoint(q.Owner, q.src)
	var ee *enclave.EnclaveError
	if !errors.As(err, &ee) || !strings.Contains(ee.Error(), "workers not quiescent") || blob != nil {
		t.Fatalf("OwnerCheckpoint = %d bytes, %v; want the dump's not-quiescent refusal", len(blob), err)
	}
	if res, err := q.src.ECall(0, testapps.CounterGet); err != nil || res[0] != 7 {
		t.Fatalf("source after the refused snapshot: counter %d, %v; want 7", res[0], err)
	}
	q.finishEntered(t)
}

// TestQuiescenceWaitsForEntryPastGate: an ecall that passed the entry gate
// just before a migration was requested, and has not run a step yet, does
// not show in the enclave's thread table. Prepare does not count the
// enclave quiescent while such a call is pending — with a one-poll budget
// it reports ErrNotQuiescent — and once the call goes on and parks, the dump
// succeeds and the migration carries the call to the target.
func TestQuiescenceWaitsForEntryPastGate(t *testing.T) {
	q := newQuiesceWorld(t)
	passed, proceed := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	enclave.SetECallGateHook(t, func() {
		if held.CompareAndSwap(false, true) {
			close(passed)
			<-proceed
		}
	})
	const iterations = 1000
	done := make(chan error, 1)
	go func() {
		_, err := q.src.ECall(0, testapps.CounterRun, iterations)
		done <- err
	}()
	<-passed

	opts := q.Opts()
	opts.PollBudget = time.Nanosecond
	if _, err := core.Prepare(q.src, opts); !errors.Is(err, core.ErrNotQuiescent) {
		t.Fatalf("Prepare with an ecall past the gate = %v, want ErrNotQuiescent", err)
	}

	// Let the call go on once a second Prepare is polling: the control
	// thread's poll answers only after the migration has begun.
	opts = q.Opts()
	prepared := make(chan error, 1)
	go func() {
		_, err := core.Prepare(q.src, opts)
		prepared <- err
	}()
	for {
		if _, err := q.src.CtlCall(enclave.SelCtlMigratePoll); err == nil {
			break
		}
		select {
		case err := <-prepared:
			t.Fatalf("Prepare = %v with an ecall still past the gate", err)
		default:
		}
	}
	close(proceed)
	if err := <-prepared; err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	blob, _, err := core.Dump(q.src, opts)
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	inc, outErr, inErr := q.migrate(func(t core.Transport) error {
		_, err := core.MigrateOutPrepared(q.src, blob, t, opts)
		return err
	})
	if outErr != nil || inErr != nil {
		t.Fatalf("migration: source %v, target %v", outErr, inErr)
	}
	if err := <-done; !errors.Is(err, enclave.ErrDestroyed) {
		t.Fatalf("source call: %v, want ErrDestroyed", err)
	}
	for r := range inc.Results {
		if r.Err != nil || r.Regs[0] != 7+iterations {
			t.Fatalf("migrated call on worker %d: counter %d, %v; want %d", r.Worker, r.Regs[0], r.Err, 7+iterations)
		}
	}
}
