package hwext

import (
	"errors"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/epcman"
	"repro/internal/ledger"
	"repro/internal/sgx"
	"repro/internal/testapps"
	"repro/internal/workload"
)

func newExtWorld(t testing.TB) (*attest.Service, *core.Owner, *Platform, *Platform) {
	t.Helper()
	service, err := attest.NewService()
	if err != nil {
		t.Fatal(err)
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Platform {
		m, err := sgx.NewMachine(sgx.Config{Name: name, Quantum: 2000, MigrationExtension: true})
		if err != nil {
			t.Fatal(err)
		}
		service.RegisterMachine(m.AttestationPublic())
		p, err := NewPlatform(enclave.NewBareHost(m), service, owner.Signer())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb := mk("ext-a"), mk("ext-b")
	var hs []ledger.Holding
	for _, p := range []*Platform{pa, pb} {
		m := p.Host.Mgr.Machine()
		hs = append(hs,
			ledger.Holding{Kind: "enclaves besides the control enclave on " + m.Name(), Excess: func() int { return m.LiveEnclaves() - 1 }},
			ledger.Holding{Kind: "stray EPC frames on " + m.Name(), Excess: func() int { return p.Host.Mgr.StrayFrames() }})
	}
	ledger.Check(t, hs...)
	return service, owner, pa, pb
}

// own destroys rt when t ends, before the world's ledger check.
func own(t testing.TB, rt *enclave.Runtime) *enclave.Runtime {
	t.Cleanup(func() { _ = rt.Destroy() })
	return rt
}

func TestTransparentMigrationMidComputation(t *testing.T) {
	service, owner, pa, pb := newExtWorld(t)
	if err := EstablishMigrationKeys(pa, pb, service); err != nil {
		t.Fatal(err)
	}

	app := testapps.CounterApp(1)
	owner.ConfigureApp(app)
	dep := core.NewDeployment(app, owner)
	src, err := enclave.BuildSigned(pa.Host, dep.App, dep.Sig)
	if err != nil {
		t.Fatal(err)
	}
	own(t, src)

	const iterations = 300000
	done := make(chan error, 1)
	go func() {
		_, err := src.ECall(0, testapps.CounterRun, iterations)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	// Freeze requires no active threads: park the worker's context in its
	// SSA (no handler, no spin — that's the point of the extension).
	src.PauseWorkers()
	if err := <-done; !errors.Is(err, enclave.ErrPaused) {
		t.Fatalf("in-flight ecall: err = %v, want ErrPaused", err)
	}
	done <- nil // placate the final drain

	tgt, err := MigrateTransparent(src, pb, dep)
	if err != nil {
		t.Fatal(err)
	}
	own(t, tgt)
	// The interrupted thread resumes on the target from its SSA context.
	regs, err := tgt.ResumeInterruptedWorker(0)
	if err != nil {
		t.Fatalf("resume on target: %v", err)
	}
	if regs[0] != iterations {
		t.Fatalf("resumed computation returned %d, want %d", regs[0], iterations)
	}
	res, err := tgt.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != iterations {
		t.Fatalf("migrated counter = %d, want %d", res[0], iterations)
	}
	<-done
}

func TestExtensionRequiresControlEnclave(t *testing.T) {
	service, owner, pa, _ := newExtWorld(t)
	// A non-control enclave trying EPUTKEY must be refused by hardware.
	app := &enclave.App{
		Name:        "rogue",
		CodeVersion: "v1",
		Workers:     1,
		HeapPages:   1,
		ECalls: []enclave.ECallFn{func(c *enclave.Call) enclave.AppStatus {
			if err := c.EPutKey([32]byte{1}); err != nil {
				c.Regs[0] = 1 // refused, as expected
			}
			return enclave.AppDone
		}},
	}
	owner.ConfigureApp(app)
	rt, err := enclave.Build(pa.Host, app, owner.Signer())
	if err != nil {
		t.Fatal(err)
	}
	own(t, rt)
	res, err := rt.ECall(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 1 {
		t.Fatal("hardware accepted EPUTKEY from a rogue enclave")
	}
	_ = service
}

func TestExtensionDisabledByDefault(t *testing.T) {
	m, err := sgx.NewMachine(sgx.Config{Name: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EMIGRATE(1); err != sgx.ErrNotMigratable {
		t.Fatalf("EMIGRATE on stock machine: err = %v, want ErrNotMigratable", err)
	}
	if err := m.RegisterControlEnclave([32]byte{}); err != sgx.ErrNotMigratable {
		t.Fatalf("RegisterControlEnclave on stock machine: err = %v", err)
	}
}

func TestFrozenEnclaveRefusesEntry(t *testing.T) {
	service, owner, pa, pb := newExtWorld(t)
	if err := EstablishMigrationKeys(pa, pb, service); err != nil {
		t.Fatal(err)
	}
	app := testapps.CounterApp(1)
	owner.ConfigureApp(app)
	dep := core.NewDeployment(app, owner)
	src, err := enclave.BuildSigned(pa.Host, dep.App, dep.Sig)
	if err != nil {
		t.Fatal(err)
	}
	own(t, src)
	if err := src.Machine().EMIGRATE(src.EnclaveID()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ECall(0, testapps.CounterGet); err == nil {
		t.Fatal("EENTER into a frozen enclave succeeded")
	}
	// EMIGRATEDONE on the (unchanged) source unfreezes it — the cancel path.
	if err := src.Machine().EMIGRATEDONE(src.EnclaveID()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ECall(0, testapps.CounterGet); err != nil {
		t.Fatalf("entry after unfreeze: %v", err)
	}
}

// grant is an EPC grant as a hypervisor makes one to a guest's driver,
// which owns no frame and is granted each as it needs it: free frames of m,
// except that from grant number at (counted from 1) on, fault decides.
type grant struct {
	m     *sgx.Machine
	next  int
	n, at int
	fault func(g *grant) (sgx.FrameIndex, error)
}

func (g *grant) frame() (sgx.FrameIndex, error) {
	if g.n++; g.n >= g.at {
		return g.fault(g)
	}
	return g.free()
}

// free grants the next free frame of the machine, from the top down.
func (g *grant) free() (sgx.FrameIndex, error) {
	for g.next--; !g.m.FrameFree(sgx.FrameIndex(g.next)); g.next-- {
	}
	return sgx.FrameIndex(g.next), nil
}

// pastEPC grants a frame the machine does not have, which every
// instruction refuses.
func pastEPC(g *grant) (sgx.FrameIndex, error) { return sgx.FrameIndex(g.m.NumFrames()), nil }

// errQuota is the grant's refusal once the guest's quota is spent.
var errQuota = errors.New("EPC quota reached")

// swapFault migrates a freshly built enclave of app from pa to pb, with pb's
// driver granted its frames one at a time (grant), and returns the
// migration's error; the migration must fail. The world's ledger check
// then sees whether the failure path gave back every frame and batch.
func swapFault(t *testing.T, app *enclave.App, at int, fault func(src *enclave.Runtime) func(*grant) (sgx.FrameIndex, error)) error {
	t.Helper()
	service, owner, pa, pb := newExtWorld(t)
	if err := EstablishMigrationKeys(pa, pb, service); err != nil {
		t.Fatal(err)
	}
	owner.ConfigureApp(app)
	dep := core.NewDeployment(app, owner)
	src, err := enclave.BuildSigned(pa.Host, dep.App, dep.Sig)
	if err != nil {
		t.Fatal(err)
	}
	own(t, src)
	m := pb.Host.Mgr.Machine()
	g := &grant{m: m, next: m.NumFrames(), at: at, fault: fault(src)}
	mgr := epcman.New(m, nil)
	mgr.SetFrameSource(g.frame)
	pb.Host = &enclave.Host{Mgr: mgr, Disp: pb.Host.Disp}
	tgt, err := MigrateTransparent(src, pb, dep)
	if err == nil {
		own(t, tgt)
		t.Fatal("migration succeeded despite the fault")
	}
	return err
}

// TestTransparentMigrationInstallFailures: the target refuses the SECS
// (ESWPINSECS) or a page (ESWPIN) of a swap-in, or its driver runs out of
// frames (AllocFrame) part-way. Each failure returns the frame it was
// installing and the batch it was draining, and tears the half-built
// target down.
func TestTransparentMigrationInstallFailures(t *testing.T) {
	same := func(f func(*grant) (sgx.FrameIndex, error)) func(*enclave.Runtime) func(*grant) (sgx.FrameIndex, error) {
		return func(*enclave.Runtime) func(*grant) (sgx.FrameIndex, error) { return f }
	}
	quota := func(*grant) (sgx.FrameIndex, error) { return -1, errQuota }
	for _, tc := range []struct {
		name  string
		at    int
		fault func(*enclave.Runtime) func(*grant) (sgx.FrameIndex, error)
		want  error
	}{
		{"ESWPINSECS", 1, same(pastEPC), sgx.ErrFrameInUse},
		{"ESWPIN", 2, same(pastEPC), sgx.ErrFrameInUse},
		{"AllocFrame", 3, same(quota), epcman.ErrNoFrames},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := swapFault(t, testapps.CounterApp(1), tc.at, tc.fault); !errors.Is(err, tc.want) {
				t.Fatalf("migration: %v, want %v", err, tc.want)
			}
		})
	}
}

// TestTransparentMigrationSealFailure: the source enclave goes away while
// its pages are still being sealed, so ESWPOUT fails inside the producer
// with batches in flight. The producer gives back the batch it was filling
// and the consumer the ones it drains.
func TestTransparentMigrationSealFailure(t *testing.T) {
	// More pages than the stream holds between producer and consumer, so
	// the producer is still sealing when the first page is installed.
	app := workload.KVApp(4<<20, 1)
	err := swapFault(t, app, 2, func(src *enclave.Runtime) func(*grant) (sgx.FrameIndex, error) {
		return func(g *grant) (sgx.FrameIndex, error) {
			_ = src.Destroy()
			return g.free()
		}
	})
	if !errors.Is(err, sgx.ErrNoSuchEnclave) {
		t.Fatalf("migration: %v, want ESWPOUT's ErrNoSuchEnclave", err)
	}
}
