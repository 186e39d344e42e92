// Package bench implements the experiment harness: one runner per table/
// figure of the paper's evaluation (Sec. VIII), each regenerating the same
// rows/series the paper reports, plus the ablations called out in DESIGN.md.
// The top-level bench_test.go and cmd/sgxmig-bench drive these runners.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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

// Fig9a runs the nbench suite natively and inside enclaves under an EPC
// budget that fits every kernel except String Sort (the paper's shape).
// passes scales runtime.
func Fig9a(passes int, epcFrames int) ([]Fig9aRow, error) {
	if passes <= 0 {
		passes = 1
	}
	if epcFrames <= 0 {
		epcFrames = 300 // ~1.2 MiB driver pool: String Sort (1.5 MiB) thrashes
	}
	var rows []Fig9aRow
	for _, k := range workload.NbenchKernels() {
		row := Fig9aRow{Kernel: k.Name}
		start := time.Now()
		nativeSum := k.Native(passes)
		row.NativeTime = time.Since(start)

		for i, mode := range []workload.AccessMode{workload.AccessBulk, workload.AccessWord} {
			rt, host, err := buildKernelEnclave(k, epcFrames)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.Name, err)
			}
			start = time.Now()
			res, err := rt.ECall(0, workload.RunSelector, uint64(passes), uint64(mode))
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

// Fig9b measures the per-workload cost of the SDK's migration machinery by
// comparing each Fig. 9(b) application with and without the entry/exit
// stubs (flag maintenance + CSSA recording).
func Fig9b(passes int) ([]Fig9bRow, error) {
	if passes <= 0 {
		passes = 2
	}
	var rows []Fig9bRow
	for _, k := range workload.AppKernels() {
		row := Fig9bRow{App: k.Name}
		for i, mk := range []func(int) *enclave.App{k.App, k.AppNoStubs} {
			// Best of three runs: single-run scheduler noise on small
			// hosts otherwise dwarfs the (near-zero) stub cost.
			best := time.Duration(0)
			for rep := 0; rep < 3; rep++ {
				rt, _, err := buildAppEnclave(mk(1))
				if err != nil {
					return nil, err
				}
				start := time.Now()
				if _, err := rt.ECall(0, workload.RunSelector, uint64(passes), uint64(workload.AccessBulk)); err != nil {
					return nil, fmt.Errorf("%s: %w", k.Name, err)
				}
				elapsed := time.Since(start)
				if best == 0 || elapsed < best {
					best = elapsed
				}
				_ = rt.Destroy()
			}
			if i == 0 {
				row.WithStubs = best
			} else {
				row.WithoutStubs = best
			}
		}
		row.Norm = float64(row.WithStubs) / float64(row.WithoutStubs)
		rows = append(rows, row)
	}
	return rows, nil
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
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	if cipher == 0 {
		cipher = tcb.CipherRC4 // the paper's reported configuration
	}
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
		time.Sleep(2 * time.Millisecond)

		var mu sync.Mutex
		var total time.Duration
		var wg sync.WaitGroup
		var firstErr error
		opts := w.Opts()
		for _, rt := range rts {
			wg.Add(1)
			go func(rt *enclave.Runtime) {
				defer wg.Done()
				start := time.Now()
				//lint:ignore leakcheck the launcher cancels and destroys every runtime after wg.Wait
				if _, err := core.Prepare(rt, opts); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if _, _, err := core.Dump(rt, opts); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				elapsed := time.Since(start)
				mu.Lock()
				total += elapsed
				mu.Unlock()
			}(rt)
		}
		wg.Wait()
		for i, rt := range rts {
			close(stops[i])
			_ = core.Cancel(rt)
			_ = rt.Destroy()
		}
		if firstErr != nil {
			return nil, firstErr
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
			if errors.Is(err, enclave.ErrWorkerBusy) {
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
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16, 32, 64}
	}
	var rows []Fig9dRow
	for _, n := range counts {
		vmEnv, owner, err := newVMWorld(n)
		if err != nil {
			return nil, err
		}
		_ = owner
		time.Sleep(2 * time.Millisecond)
		tr, met := telemetryHandles()
		sp := tr.Begin("bench.fig9d.dump", telemetry.Int("enclaves", n))
		opts := &core.Options{Service: vmEnv.Node.Service, Trace: sp, Metrics: met}
		_, dumpTime, err := vmEnv.OS.PrepareAllEnclaves(opts)
		sp.Fail(err)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9dRow{Enclaves: n, TotalDump: dumpTime})
		vmEnv.OS.CancelMigration()
		_ = vmEnv.Shutdown()
	}
	return rows, nil
}

// newVMWorld builds a node + VM hosting n busy counter enclaves.
func newVMWorld(n int) (*vmm.VM, *core.Owner, error) {
	service, err := attest.NewService()
	if err != nil {
		return nil, nil, err
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		return nil, nil, err
	}
	node, err := vmm.NewNode(vmm.NodeConfig{Name: "bench-src", EPCFrames: 32768}, service)
	if err != nil {
		return nil, nil, err
	}
	app := testapps.CounterApp(2)
	owner.ConfigureApp(app)
	node.Registry.Add(core.NewDeployment(app, owner))
	vm, err := node.CreateVM(vmm.VMConfig{Name: "bench-vm", MemPages: 4096, VCPUs: 4, EPCQuota: 24576})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("e%d", i), "counter", owner, vmWorkload); err != nil {
			return nil, nil, err
		}
	}
	return vm, owner, nil
}

func vmWorkload(rt *enclave.Runtime, worker int, stop <-chan struct{}) {
	busyWorker(rt, worker, stop)
}

// fillGuest gives a figure's VM memory worth migrating: seeded
// incompressible pages over its upper half, the shape benchmark/'s vm_live
// has, written before any process is launched. A bulk round carries the
// resident pages only, so a guest nobody wrote migrates in about a
// millisecond and leaves the enclaves' cost nothing to be compared with.
func fillGuest(vm *vmm.VM, seed int64) error {
	fill := make([]byte, vm.Mem.Bytes()/2)
	rand.New(rand.NewSource(seed)).Read(fill)
	return vm.Mem.Write(uint64(len(fill)), fill)
}

// Fig10Row carries the live-migration metrics for one enclave count, with
// and without enclaves (Fig. 10 b/c/d) plus the restore series (Fig. 10a).
type Fig10Row struct {
	Enclaves int
	With     vmm.LiveMigrationStats
	Without  vmm.LiveMigrationStats
}

// Fig10 runs whole-VM live migrations for each enclave count, and the same
// VM without enclaves as the baseline.
func Fig10(counts []int, memPages int, bandwidthBps float64) ([]Fig10Row, error) {
	if len(counts) == 0 {
		counts = []int{8, 16, 32, 64}
	}
	if memPages <= 0 {
		memPages = 4096 // 16 MiB guest
	}
	if bandwidthBps <= 0 {
		bandwidthBps = 250e6
	}
	var rows []Fig10Row
	for _, n := range counts {
		runtime.GC()
		row := Fig10Row{Enclaves: n}
		for _, withEnclaves := range []bool{true, false} {
			service, err := attest.NewService()
			if err != nil {
				return nil, err
			}
			owner, err := core.NewOwner(service)
			if err != nil {
				return nil, err
			}
			src, err := vmm.NewNode(vmm.NodeConfig{Name: "src", EPCFrames: 32768}, service)
			if err != nil {
				return nil, err
			}
			dst, err := vmm.NewNode(vmm.NodeConfig{Name: "dst", EPCFrames: 32768}, service)
			if err != nil {
				return nil, err
			}
			app := testapps.CounterApp(2)
			owner.ConfigureApp(app)
			dep := core.NewDeployment(app, owner)
			src.Registry.Add(dep)
			dst.Registry.Add(dep)
			vm, err := src.CreateVM(vmm.VMConfig{Name: "vm", MemPages: memPages, VCPUs: 4, EPCQuota: 24576})
			if err != nil {
				return nil, err
			}
			if err := fillGuest(vm, 10); err != nil {
				return nil, err
			}
			if _, err := vm.OS.LaunchPlainProcess("app", 256, 200*time.Microsecond); err != nil {
				return nil, err
			}
			if withEnclaves {
				for i := 0; i < n; i++ {
					if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("e%d", i), "counter", owner, vmWorkload); err != nil {
						return nil, err
					}
				}
			}
			time.Sleep(2 * time.Millisecond)
			// Pin the paper's serial Fig. 8 schedule so the published
			// timings stay reproducible; A4 measures the pipelined engine.
			tr, met := telemetryHandles()
			tvm, stats, err := vmm.LiveMigrate(vm, dst, &vmm.LiveMigrationConfig{
				BandwidthBps:       bandwidthBps,
				SerialDump:         true,
				SerialChannelSetup: true,
				Tracer:             tr,
				Metrics:            met,
			})
			if err != nil {
				return nil, err
			}
			if withEnclaves {
				row.With = *stats
			} else {
				row.Without = *stats
			}
			_ = tvm.Shutdown()
		}
		rows = append(rows, row)
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
	if len(sizesMB) == 0 {
		sizesMB = []int{1, 2, 4, 8, 16, 32}
	}
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
		rt.RequestMigration()
		start := time.Now()
		if _, err := rt.CtlCall(enclave.SelCtlMigrateBegin); err != nil {
			return nil, err
		}
		for {
			res, err := rt.CtlCall(enclave.SelCtlMigratePoll)
			if err != nil {
				return nil, err
			}
			if res[0] == 1 {
				break
			}
			time.Sleep(opts.PollInterval)
		}
		blob, _, err := core.Dump(rt, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{
			StateBytes: bytes,
			Checkpoint: time.Since(start),
			BlobBytes:  len(blob),
		})
		_ = core.Cancel(rt)
		_ = rt.Destroy()
	}
	return rows, nil
}
