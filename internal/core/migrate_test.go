package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/enclave"
	"repro/internal/ledger"
	"repro/internal/sgx"
	"repro/internal/testapps"
)

// world is a two-machine test universe with a shared attestation service
// and owner.
type world struct {
	service *attest.Service
	owner   *Owner
	mA, mB  *sgx.Machine
	hostA   *enclave.Host
	hostB   *enclave.Host
}

func newWorld(t testing.TB) *world {
	t.Helper()
	service, err := attest.NewService()
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(service)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := sgx.NewMachine(sgx.Config{Name: "source", Quantum: 2000})
	if err != nil {
		t.Fatal(err)
	}
	mB, err := sgx.NewMachine(sgx.Config{Name: "target", Quantum: 2000})
	if err != nil {
		t.Fatal(err)
	}
	service.RegisterMachine(mA.AttestationPublic())
	service.RegisterMachine(mB.AttestationPublic())
	w := &world{
		service: service,
		owner:   owner,
		mA:      mA,
		mB:      mB,
		hostA:   enclave.NewBareHost(mA),
		hostB:   enclave.NewBareHost(mB),
	}
	ledger.Check(t,
		ledger.Holding{Kind: "enclaves on source", Excess: mA.LiveEnclaves},
		ledger.Holding{Kind: "enclaves on target", Excess: mB.LiveEnclaves},
		ledger.Holding{Kind: "stray EPC frames on source", Excess: w.hostA.Mgr.StrayFrames},
		ledger.Holding{Kind: "stray EPC frames on target", Excess: w.hostB.Mgr.StrayFrames})
	return w
}

// launch builds + provisions an app instance on host A.
func (w *world) launch(t testing.TB, app *enclave.App) *enclave.Runtime {
	t.Helper()
	return w.launchOn(t, w.hostA, app)
}

// launchOn builds + provisions an app instance on host.
func (w *world) launchOn(t testing.TB, host *enclave.Host, app *enclave.App) *enclave.Runtime {
	t.Helper()
	w.owner.ConfigureApp(app)
	rt, err := enclave.Build(host, app, w.owner.Signer())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.owner.Provision(rt); err != nil {
		t.Fatal(err)
	}
	return own(t, rt)
}

// own destroys rt when t ends, before the world's ledger check runs: the
// check counts every enclave still alive on a machine as leaked.
func own(t testing.TB, rt *enclave.Runtime) *enclave.Runtime {
	t.Cleanup(func() { _ = rt.Destroy() })
	return rt
}

func (w *world) deploy(app *enclave.App) (*Deployment, *Registry) {
	dep := NewDeployment(app, w.owner)
	reg := NewRegistry()
	reg.Add(dep)
	return dep, reg
}

func (w *world) opts() *Options {
	return &Options{Service: w.service}
}

// testPipe is NewPipe for a test: both ends close when t ends, so no frame
// stays queued in a pipe no one reads.
func testPipe(t testing.TB) (Transport, Transport) {
	a, b := NewPipe()
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

// runMigration wires a pipe between MigrateOut and MigrateIn.
func runMigration(t testing.TB, src *enclave.Runtime, hostB *enclave.Host, reg *Registry, opts *Options) (SourceReport, *Incoming) {
	t.Helper()
	t1, t2 := testPipe(t)
	var (
		inc   *Incoming
		inErr error
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		inc, inErr = MigrateIn(hostB, reg, t2, opts)
		if inErr != nil {
			_ = t2.Close() // the source must not stream into a target that gave up
		}
	}()
	rep, outErr := MigrateOut(src, t1, opts)
	if outErr != nil {
		_ = t1.Close() // the target must not wait on a source that gave up
	}
	wg.Wait()
	if outErr != nil {
		t.Fatalf("MigrateOut: %v", outErr)
	}
	if inErr != nil {
		t.Fatalf("MigrateIn: %v", inErr)
	}
	own(t, inc.Runtime)
	return rep, inc
}

func TestMigrateIdleEnclave(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(2)
	src := w.launch(t, app)
	_, reg := w.deploy(app)

	// Put some state in before migrating.
	if _, err := src.ECall(0, testapps.CounterAdd, 41); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ECall(0, testapps.CounterAdd, 1); err != nil {
		t.Fatal(err)
	}

	rep, inc := runMigration(t, src, w.hostB, reg, w.opts())
	if rep.CheckpointBytes == 0 {
		t.Fatal("no checkpoint bytes reported")
	}

	// The target continues with the migrated state.
	res, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 42 {
		t.Fatalf("migrated counter = %d, want 42", res[0])
	}

	// The source has self-destroyed: every ecall is refused.
	if _, err := src.ECall(0, testapps.CounterGet); !errors.Is(err, enclave.ErrDestroyed) {
		t.Fatalf("source ecall after migration: err = %v, want ErrDestroyed", err)
	}
	if _, err := src.CtlCall(enclave.SelCtlStatus); !errors.Is(err, enclave.ErrDestroyed) {
		t.Fatalf("source ctl after migration: err = %v, want ErrDestroyed", err)
	}
}

func TestMigrateMidComputation(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(2)
	src := w.launch(t, app)
	_, reg := w.deploy(app)

	const iterations = 400000

	// Start a long-running ecall on worker 0.
	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := src.ECall(0, testapps.CounterRun, iterations)
		done <- outcome{err: err}
	}()

	// Wait until the computation is demonstrably in flight.
	var mid uint64
	for i := 0; i < 1000; i++ {
		res, err := src.ECall(1, testapps.CounterGet)
		if err != nil {
			t.Fatal(err)
		}
		mid = res[0]
		if mid > 1000 {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if mid == 0 || mid >= iterations {
		t.Fatalf("computation not mid-flight: counter = %d", mid)
	}

	_, inc := runMigration(t, src, w.hostB, reg, w.opts())

	// The source-side caller lost its enclave.
	out := <-done
	if !errors.Is(out.err, enclave.ErrDestroyed) {
		t.Fatalf("in-flight source ecall: err = %v, want ErrDestroyed", out.err)
	}

	// The in-flight computation completes on the target with NO lost or
	// repeated increments.
	var results []WorkerResult
	for r := range inc.Results {
		results = append(results, r)
	}
	if len(results) != 1 {
		t.Fatalf("got %d resumed workers, want 1", len(results))
	}
	if results[0].Err != nil {
		t.Fatalf("resumed worker failed: %v", results[0].Err)
	}
	if got := results[0].Regs[0]; got != iterations {
		t.Fatalf("resumed computation returned %d, want %d", got, iterations)
	}
	res, err := inc.Runtime.ECall(1, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != iterations {
		t.Fatalf("migrated counter = %d, want %d", res[0], iterations)
	}
}

func TestMigrationCancelResumesWorkers(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(2)
	src := w.launch(t, app)

	const iterations = 200000
	done := countInside(t, src, iterations)

	opts := w.opts()
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Dump(src, opts); err != nil {
		t.Fatal(err)
	}
	if err := Cancel(src); err != nil {
		t.Fatal(err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("ecall after cancelled migration: %v", r.err)
	}
	if r.regs[0] != iterations {
		t.Fatalf("counter after cancel = %d, want %d", r.regs[0], iterations)
	}
}
