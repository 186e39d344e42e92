// Package bench implements the experiment harness: one runner per table/
// figure of the paper's evaluation (Sec. VIII), each regenerating the same
// rows/series the paper reports, plus the ablations called out in DESIGN.md.
// cmd/sgxmig-bench drives these runners and prints their tables.
//
// Every parameter a runner takes is a sweep the command sets differently
// under -quick; everything else is a constant. Where a runner repeats a
// measurement it reports the median of a fixed number of runs.
package bench

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/tcb"
	"repro/internal/telemetry"
	"repro/internal/testapps"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// Fig9aRow is one kernel of the nbench overhead experiment: normalised
// execution time of the enclave runs against native.
type Fig9aRow struct {
	Kernel     string
	NativeTime time.Duration
	SDKTime    time.Duration // this repo's SDK (bulk access) — "Our SDK"
	IntelTime  time.Duration // word-granular access profile — "Intel SDK" stand-in
	SDKNorm    float64
	IntelNorm  float64
	Evictions  int
}

// Fig. 9(a)'s setup: one pass of each kernel, under a ~1.2 MiB driver pool
// that String Sort (1.5 MiB) thrashes.
const (
	nbenchPasses = 1
	nbenchFrames = 300
)

// Fig9a runs the nbench suite natively and inside enclaves under an EPC
// budget that fits every kernel except String Sort (the paper's shape).
func Fig9a() ([]Fig9aRow, error) {
	var rows []Fig9aRow
	for _, k := range workload.NbenchKernels() {
		row := Fig9aRow{Kernel: k.Name}
		start := time.Now()
		nativeSum := k.Native(nbenchPasses)
		row.NativeTime = time.Since(start)

		for i, mode := range []workload.AccessMode{workload.AccessBulk, workload.AccessWord} {
			rt, host, err := buildKernelEnclave(k, nbenchFrames)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.Name, err)
			}
			start = time.Now()
			res, err := rt.ECall(0, workload.RunSelector, nbenchPasses, uint64(mode))
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s (mode %d): %w", k.Name, mode, err)
			}
			if res[0] != nativeSum {
				return nil, fmt.Errorf("%s: enclave checksum mismatch", k.Name)
			}
			if i == 0 {
				row.SDKTime = elapsed
				ev, _ := host.Mgr.Stats()
				row.Evictions = ev
			} else {
				row.IntelTime = elapsed
			}
			_ = rt.Destroy()
		}
		row.SDKNorm = float64(row.SDKTime) / float64(row.NativeTime)
		row.IntelNorm = float64(row.IntelTime) / float64(row.NativeTime)
		rows = append(rows, row)
	}
	return rows, nil
}

func buildKernelEnclave(k *workload.Kernel, epcFrames int) (*enclave.Runtime, *enclave.Host, error) {
	m, err := sgx.NewMachine(sgx.Config{Name: "bench", EPCFrames: 8192})
	if err != nil {
		return nil, nil, err
	}
	host := enclave.NewConstrainedHost(m, epcFrames)
	signer, err := tcb.NewSigningIdentity()
	if err != nil {
		return nil, nil, err
	}
	app := k.App(1)
	app.EnclavePublic = signer.Public()
	rt, err := enclave.Build(host, app, signer)
	return rt, host, err
}

// Fig9bRow is one application of the migration-support overhead experiment.
type Fig9bRow struct {
	App          string
	WithStubs    time.Duration
	WithoutStubs time.Duration
	Norm         float64 // with / without (≈ 1.0 expected)
}

// Fig. 9(b)'s setup: two passes of each application, timed stubRuns times
// with and without the stubs. The stub cost is near zero and one run's
// scheduler noise on a small host is not, so each side reports its median.
const (
	appPasses = 2
	stubRuns  = 3
)

// Fig9b measures the per-workload cost of the SDK's migration machinery by
// comparing each Fig. 9(b) application with and without the entry/exit
// stubs (flag maintenance + CSSA recording).
func Fig9b() ([]Fig9bRow, error) {
	var rows []Fig9bRow
	for _, k := range workload.AppKernels() {
		var med [2]time.Duration
		for i, mk := range []func(int) *enclave.App{k.App, k.AppNoStubs} {
			runs := make([]time.Duration, stubRuns)
			for rep := range runs {
				rt, _, err := buildAppEnclave(mk(1))
				if err != nil {
					return nil, err
				}
				start := time.Now()
				if _, err := rt.ECall(0, workload.RunSelector, appPasses, uint64(workload.AccessBulk)); err != nil {
					return nil, fmt.Errorf("%s: %w", k.Name, err)
				}
				runs[rep] = time.Since(start)
				_ = rt.Destroy()
			}
			med[i] = median(runs)
		}
		rows = append(rows, Fig9bRow{App: k.Name, WithStubs: med[0], WithoutStubs: med[1], Norm: float64(med[0]) / float64(med[1])})
	}
	return rows, nil
}

// median returns the middle value of xs (the upper middle for an even
// count), leaving xs in sorted order.
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

func buildAppEnclave(app *enclave.App) (*enclave.Runtime, *enclave.Host, error) {
	w, err := sim.NewWorldConfig(sim.Config{Machines: 1, EPCFrames: 8192})
	if err != nil {
		return nil, nil, err
	}
	w.Owner.ConfigureApp(app)
	rt, err := enclave.Build(w.Hosts[0], app, w.Owner.Signer())
	return rt, w.Hosts[0], err
}

// Fig9cRow is one point of the two-phase checkpointing latency experiment.
type Fig9cRow struct {
	Enclaves   int
	Cipher     tcb.CheckpointCipher
	MeanPerEnc time.Duration // mean two-phase checkpoint time per enclave
}

// Fig9c measures two-phase checkpoint time with 1..N enclaves (two busy
// workers each) checkpointing concurrently under a 4-VCPU-style budget.
func Fig9c(counts []int, cipher tcb.CheckpointCipher) ([]Fig9cRow, error) {
	var rows []Fig9cRow
	for _, n := range counts {
		w, err := sim.NewWorldConfig(sim.Config{Machines: 1, EPCFrames: 16384})
		if err != nil {
			return nil, err
		}
		dep := w.Deploy(testapps.CounterApp(2))
		var rts []*enclave.Runtime
		var stops []chan struct{}
		for i := 0; i < n; i++ {
			rt, err := w.Launch(dep, 0)
			if err != nil {
				return nil, err
			}
			if _, err := rt.CtlCall(enclave.SelCtlSetCipher, uint64(cipher)); err != nil {
				return nil, err
			}
			stop := make(chan struct{})
			for wk := 0; wk < 2; wk++ {
				go busyWorker(rt, wk, stop)
			}
			rts = append(rts, rt)
			stops = append(stops, stop)
		}
		for _, rt := range rts {
			if err := testapps.AwaitCount(rt); err != nil {
				return nil, err
			}
		}

		var mu sync.Mutex
		var total time.Duration
		var wg sync.WaitGroup
		var errs error
		opts := w.Opts()
		for _, rt := range rts {
			wg.Add(1)
			go func(rt *enclave.Runtime) {
				defer wg.Done()
				start := time.Now()
				_, err := core.Prepare(rt, opts)
				if err == nil {
					_, _, err = core.Dump(rt, opts)
				}
				elapsed := time.Since(start)
				mu.Lock()
				defer mu.Unlock()
				errs = errors.Join(errs, err)
				total += elapsed
			}(rt)
		}
		wg.Wait()
		for i, rt := range rts {
			close(stops[i])
			_ = core.Cancel(rt)
			_ = rt.Destroy()
		}
		if errs != nil {
			return nil, errs
		}
		rows = append(rows, Fig9cRow{Enclaves: n, Cipher: cipher, MeanPerEnc: total / time.Duration(n)})
	}
	return rows, nil
}

func busyWorker(rt *enclave.Runtime, worker int, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if _, err := rt.ECall(worker, testapps.CounterRun, 2000); err != nil {
			if errors.Is(err, enclave.ErrWorkerBusy) || errors.Is(err, enclave.ErrMigrating) {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			return
		}
	}
}

// Fig9dRow is one point of the total-dumping-time experiment (Fig. 8
// pipeline steps 2-6 inside a guest OS).
type Fig9dRow struct {
	Enclaves  int
	TotalDump time.Duration
}

// Fig9d measures the time from the guest OS receiving the migration
// notification until every enclave has produced its checkpoint.
func Fig9d(counts []int) ([]Fig9dRow, error) {
	var rows []Fig9dRow
	for _, n := range counts {
		w, err := newVMWorld(n)
		if err != nil {
			return nil, err
		}
		tr, met := telemetryHandles()
		sp := tr.Begin("bench.fig9d.dump", telemetry.Int("enclaves", n))
		opts := &core.Options{Service: w.vm.Node.Service, Trace: sp, Metrics: met}
		_, dumpTime, err := w.vm.OS.PrepareAllEnclaves(opts)
		sp.Fail(err)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9dRow{Enclaves: n, TotalDump: dumpTime})
		w.vm.OS.CancelMigration()
		_ = w.vm.Shutdown()
	}
	return rows, nil
}

// The guest and link of every VM-level figure: a 16 MiB guest over a
// 250 MB/s link.
const (
	guestPages = 4096
	linkBps    = 250e6
)

// vmWorld is a VM on a source node and an empty target node, both trusting
// one attestation service and both deploying the counter app.
type vmWorld struct {
	vm  *vmm.VM
	dst *vmm.Node
}

// newVMWorld builds a vmWorld whose VM runs a plain dirtying process and n
// counter enclaves with two busy workers each. Before anything is launched
// its upper half is filled with seeded incompressible pages, the shape
// benchmark/'s vm_live has: a bulk round carries the resident pages only,
// so a guest nobody wrote migrates in about a millisecond and leaves the
// enclaves' cost nothing to be compared with.
func newVMWorld(n int) (*vmWorld, error) {
	service, err := attest.NewService()
	if err != nil {
		return nil, err
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		return nil, err
	}
	app := testapps.CounterApp(2)
	owner.ConfigureApp(app)
	dep := core.NewDeployment(app, owner)
	var nodes [2]*vmm.Node
	for i, name := range []string{"bench-src", "bench-dst"} {
		if nodes[i], err = vmm.NewNode(vmm.NodeConfig{Name: name, EPCFrames: 32768}, service); err != nil {
			return nil, err
		}
		nodes[i].Registry.Add(dep)
	}
	vm, err := nodes[0].CreateVM(vmm.VMConfig{Name: "bench-vm", MemPages: guestPages, VCPUs: 4, EPCQuota: 24576})
	if err != nil {
		return nil, err
	}
	fill := make([]byte, vm.Mem.Bytes()/2)
	rand.New(rand.NewSource(10)).Read(fill)
	if err := vm.Mem.Write(uint64(len(fill)), fill); err != nil {
		return nil, err
	}
	if _, err := vm.OS.LaunchPlainProcess("app", 256, 200*time.Microsecond); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		p, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("e%d", i), "counter", owner, busyWorker)
		if err != nil {
			return nil, err
		}
		if err := testapps.AwaitCount(p.RT); err != nil {
			return nil, err
		}
	}
	return &vmWorld{vm: vm, dst: nodes[1]}, nil
}

// migrateVM live-migrates a fresh vmWorld's VM with n enclaves, on the
// paper's Fig. 8 schedule or the pipelined one.
func migrateVM(n int, paper bool) (vmm.LiveMigrationStats, error) {
	// Large worlds from the previous run otherwise put GC pauses into this
	// one's measured window.
	runtime.GC()
	w, err := newVMWorld(n)
	if err != nil {
		return vmm.LiveMigrationStats{}, err
	}
	tr, met := telemetryHandles()
	tvm, stats, err := vmm.LiveMigrate(w.vm, w.dst, &vmm.LiveMigrationConfig{
		BandwidthBps:  linkBps,
		PaperSchedule: paper,
		Tracer:        tr,
		Metrics:       met,
	})
	if tvm != nil {
		_ = tvm.Shutdown()
	}
	if err != nil {
		return vmm.LiveMigrationStats{}, err
	}
	return *stats, nil
}

// Fig10Row carries the live-migration metrics for one enclave count, with
// and without enclaves (Fig. 10 b/c/d) plus the restore series (Fig. 10a).
type Fig10Row struct {
	Enclaves int
	With     vmm.LiveMigrationStats
	Without  vmm.LiveMigrationStats
}

// Fig10 runs whole-VM live migrations for each enclave count, and the same
// VM without enclaves as the baseline, on the paper's serial Fig. 8
// schedule so the published timings stay reproducible (A4 measures the
// pipelined engine).
func Fig10(counts []int) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, n := range counts {
		with, err := migrateVM(n, true)
		if err != nil {
			return nil, err
		}
		without, err := migrateVM(0, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{Enclaves: n, With: with, Without: without})
	}
	return rows, nil
}

// Fig11Row is one point of the checkpoint-size experiment.
type Fig11Row struct {
	StateBytes int
	Checkpoint time.Duration
	BlobBytes  int
}

// Fig11 measures two-phase checkpoint time of the memcached-analogue KV
// store as its occupied state grows (AES-GCM, the AES-NI-style cipher).
func Fig11(sizesMB []int) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, mb := range sizesMB {
		// Large transient worlds from previous points otherwise inflate GC
		// pauses into the measured window.
		runtime.GC()
		bytes := mb << 20
		w, err := sim.NewWorldConfig(sim.Config{Machines: 1, EPCFrames: 32768})
		if err != nil {
			return nil, err
		}
		dep := w.Deploy(workload.KVApp(bytes, 4))
		rt, err := w.Launch(dep, 0)
		if err != nil {
			return nil, err
		}
		if _, err := rt.ECall(0, workload.KVFill, uint64(bytes)); err != nil {
			return nil, err
		}
		opts := w.Opts()
		start := time.Now()
		if _, err := core.Prepare(rt, opts); err != nil {
			return nil, err
		}
		blob, _, err := core.Dump(rt, opts)
		took := time.Since(start)
		_ = core.Cancel(rt)
		_ = rt.Destroy()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{StateBytes: bytes, Checkpoint: took, BlobBytes: len(blob)})
	}
	return rows, nil
}
