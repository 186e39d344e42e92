package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/telemetry"
	"repro/internal/testapps"
	"repro/internal/vmm"
)

const (
	vmPages      = 8192 // 32 MiB guest
	vmFillFrom   = vmPages / 2
	vmEnclaves   = 16
	vmLinkBps    = 250e6
	vmDirtyPages = 256
	vmDirtyEvery = 200 * time.Microsecond
	vmCheckPages = 64
	vmCountSteps = 2000 // per ecall, ≈0.4 ms of CPU
)

// workerGate is how a world quiesces its busy workers before the VM
// migrates, the way a guest OS signals its processes first (Fig. 8 step 3).
//
// The enclave's dump is not atomic against a worker entering the enclave
// while it runs: the entry stub flips the thread's flag to busy and then to
// spin, so the dump fails "workers not quiescent" or captures a thread
// table the target's CSSA verification refuses for its whole 10 s budget.
// Keeping the host loops from starting new ecalls is not enough: with 32
// CPU-bound goroutines on two CPUs a loop that has decided to enter can sit
// in the run queue for 100 ms before it does, and one operation in a
// thousand still failed. So the world's set-up ends by raising hold and
// waiting until every worker has finished its call and parked outside.
// hold stays up: the loops the target restarts park at once.
type workerGate struct {
	hold    atomic.Bool
	parked  atomic.Int32 // workers that saw hold and will not enter again
	started atomic.Int32 // workers that have had their first turn on a CPU
}

// await waits until counter c reaches n.
func await(c *atomic.Int32, n int, what string) error {
	for deadline := time.Now().Add(5 * time.Second); int(c.Load()) < n; {
		if time.Now().After(deadline) {
			return fmt.Errorf("vm world: %d of %d workers %s", c.Load(), n, what)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// busyCounter returns a guest workload that, once ready closes, keeps one
// enclave worker counting until the gate's hold goes up or stop closes.
// ready lets the world seed the enclave's counter before its workers
// increment it. The loop must survive every error: a host loop that gives
// up leaves its thread unparked and the target's verification fails.
func busyCounter(ready <-chan struct{}, g *workerGate) vmm.WorkloadFunc {
	return func(rt *enclave.Runtime, worker int, stop <-chan struct{}) {
		select {
		case <-ready:
		case <-stop:
			return
		}
		g.started.Add(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g.hold.Load() {
				g.parked.Add(1)
				<-stop
				return
			}
			_, err := rt.ECall(worker, testapps.CounterRun, vmCountSteps)
			switch {
			case err == nil:
			case errors.Is(err, enclave.ErrDestroyed):
				return
			default: // ErrWorkerBusy, or a transient fault
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

// vmWorld is one two-node cloud with the VM to migrate on the first node.
type vmWorld struct {
	dst  *vmm.Node
	vm   *vmm.VM
	fill []byte            // what the top half of guest memory was filled with
	want map[string]uint64 // process name → its enclave's counter once its workers have parked
	gate workerGate
}

func buildVMWorld(rng *rand.Rand, enclaves int) (*vmWorld, error) {
	service, err := attest.NewService()
	if err != nil {
		return nil, err
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		return nil, err
	}
	src, err := vmm.NewNode(vmm.NodeConfig{Name: "src"}, service)
	if err != nil {
		return nil, err
	}
	dst, err := vmm.NewNode(vmm.NodeConfig{Name: "dst"}, service)
	if err != nil {
		return nil, err
	}
	app := testapps.CounterApp(2)
	owner.ConfigureApp(app)
	dep := core.NewDeployment(app, owner)
	src.Registry.Add(dep)
	dst.Registry.Add(dep)
	vm, err := src.CreateVM(vmm.VMConfig{Name: "vm", MemPages: vmPages})
	if err != nil {
		return nil, err
	}
	w := &vmWorld{dst: dst, vm: vm, fill: make([]byte, (vmPages-vmFillFrom)*vmm.PageSize), want: make(map[string]uint64, enclaves)}
	// Fill before anything is launched: incompressible pages are what
	// puts the wire codec and the shaped link on the critical path.
	rng.Read(w.fill)
	if err := vm.OS.Memory().Write(vmFillFrom*vmm.PageSize, w.fill); err != nil {
		return nil, err
	}
	if _, err := vm.OS.LaunchPlainProcess("app", vmDirtyPages, vmDirtyEvery); err != nil {
		return nil, err
	}
	// Each enclave's counter starts from a seeded base, in place before
	// ready lets its workers count (they increment one word without
	// synchronisation, so an add racing them could be lost). Each enclave
	// gets busy as soon as it is seeded, while the next is being launched.
	var procs []*vmm.Process
	for i := 0; i < enclaves; i++ {
		ready := make(chan struct{})
		p, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("e%d", i), "counter", owner, busyCounter(ready, &w.gate))
		if err != nil {
			close(ready)
			return nil, err
		}
		base := 1<<40 + rng.Uint64()>>32
		_, err = p.RT.ECall(0, testapps.CounterAdd, base)
		close(ready)
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	// Every worker gets its first turn on a CPU and counts — 32 CPU-bound
	// goroutines take a while to all have one — then hold goes up and all
	// of them park.
	if err := await(&w.gate.started, 2*enclaves, "started"); err != nil {
		return nil, err
	}
	w.gate.hold.Store(true)
	if err := await(&w.gate.parked, 2*enclaves, "parked"); err != nil {
		return nil, err
	}
	// What the workers counted up to is the state the migration must carry.
	for _, p := range procs {
		res, err := p.RT.ECall(0, testapps.CounterGet)
		if err != nil {
			return nil, err
		}
		w.want[p.Name] = res[0]
	}
	return w, nil
}

// verify checks the migrated VM: seeded pages of the fill arrived intact
// and every enclave answers on both workers with the count it left with.
func (w *vmWorld) verify(r *run, tvm *vmm.VM, stats *vmm.LiveMigrationStats) error {
	if stats.EnclaveCount != vmEnclaves {
		return fmt.Errorf("EnclaveCount = %d, want %d", stats.EnclaveCount, vmEnclaves)
	}
	if !w.vm.Dead() {
		return errors.New("single-instance violated: source VM still live")
	}
	for _, p := range w.vm.OS.Processes() {
		if !p.RT.Dead() {
			return fmt.Errorf("single-instance violated: source enclave %s still live", p.Name)
		}
	}
	page := make([]byte, vmm.PageSize)
	for i := 0; i < vmCheckPages; i++ {
		p := r.rng.Intn(vmPages - vmFillFrom)
		if err := tvm.Mem.Read(uint64(vmFillFrom+p)*vmm.PageSize, page); err != nil {
			return err
		}
		if !bytes.Equal(page, w.fill[p*vmm.PageSize:(p+1)*vmm.PageSize]) {
			return fmt.Errorf("guest page %d differs on target", vmFillFrom+p)
		}
	}
	tvm.OS.StopAll()
	procs := tvm.OS.Processes()
	if len(procs) != vmEnclaves {
		return fmt.Errorf("target runs %d enclave processes, want %d", len(procs), vmEnclaves)
	}
	for _, p := range procs {
		want, ok := w.want[p.Name]
		if !ok {
			return fmt.Errorf("unexpected process %s on target", p.Name)
		}
		for worker := 0; worker < 2; worker++ {
			res, err := p.RT.ECall(worker, testapps.CounterGet)
			if err != nil {
				return fmt.Errorf("counterGet %s on target: %w", p.Name, err)
			}
			if res[0] != want {
				return fmt.Errorf("enclave %s counts %d on target, %d when it left", p.Name, res[0], want)
			}
		}
	}
	return nil
}

// vmliveWorld builds a fresh world (set-up) and live-migrates its VM once.
func vmliveWorld(r *run) error {
	var w *vmWorld
	if err := r.setup(func() (err error) {
		w, err = buildVMWorld(r.rng, vmEnclaves)
		return err
	}); err != nil {
		return err
	}
	cfg := &vmm.LiveMigrationConfig{BandwidthBps: vmLinkBps}
	if r.traced {
		cfg.Tracer = telemetry.New()
		cfg.Metrics = telemetry.NewMetrics()
	}
	srcMgr := w.vm.OS.Host().Mgr
	var tvm *vmm.VM
	var stats *vmm.LiveMigrationStats
	r.do(vmEnclaves, func(o *op) error {
		sp := o.span.child("vmm.live_migrate")
		start := time.Now()
		var err error
		tvm, stats, err = vmm.LiveMigrate(w.vm, w.dst, cfg)
		end := time.Now()
		sp.end()
		if err != nil {
			return err
		}
		window := stats.Downtime - (stats.EnclaveDumpTime - stats.DumpPrecopyOverlap)
		sp.derived("vmm.dump", start, stats.EnclaveDumpTime)
		sp.derived("vmm.downtime", end.Add(-window), window)
		sp.derived("vmm.restore", end.Add(-stats.EnclaveRestoreTime), stats.EnclaveRestoreTime)
		o.wire = stats.WireBytes
		o.link = time.Duration(float64(stats.WireBytes) / vmLinkBps * float64(time.Second))
		o.down = stats.Downtime
		return nil
	}, func(o *op) error {
		ev, rl := srcMgr.Stats()
		tev, trl := tvm.OS.Host().Mgr.Stats()
		o.layer.add("epcman.evictions_per_migration", float64(ev+tev))
		o.layer.add("epcman.reloads_per_migration", float64(rl+trl))
		o.layer.add("vmm.dump_ms", ms(stats.EnclaveDumpTime))
		o.layer.add("vmm.dump_overlap_ms", ms(stats.DumpPrecopyOverlap))
		o.layer.add("vmm.restore_ms", ms(stats.EnclaveRestoreTime))
		o.layer.add("vmm.precopy_rounds", float64(stats.PreCopyRounds))
		o.layer.add("vmm.bulk_wire_mib", float64(stats.BulkWireBytes)/mib)
		o.layer.add("vmm.precopy_wire_mib", float64(stats.PreCopyWireBytes)/mib)
		o.layer.add("vmm.stopcopy_wire_mib", float64(stats.StopCopyWireBytes)/mib)
		o.layer.add("vmm.raw_frames", float64(stats.RawFrames))
		o.layer.add("vmm.delta_frames", float64(stats.DeltaFrames))
		return w.verify(r, tvm, stats)
	})
	// A shutdown that cannot release the VM's EPC is a leak: count it
	// against the operation rather than aborting the run.
	live := w.vm
	if tvm != nil {
		live = tvm
	}
	if err := live.Shutdown(); err != nil {
		r.fail(r.ops, fmt.Errorf("shutdown: %w", err))
	}
	return nil
}
