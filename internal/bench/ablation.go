package bench

import (
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/fleet"
	"repro/internal/hostproto"
	"repro/internal/hwext"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testapps"
	"repro/internal/testhost"
	"repro/internal/vmm"
)

// AgentRow is one point of the Sec. VI-D agent-enclave ablation: the
// downtime-critical key-delivery latency with the attestation service at a
// given RTT, with and without the agent.
type AgentRow struct {
	RTT          time.Duration
	WithoutAgent time.Duration // hello → channel → release → key install
	WithAgent    time.Duration // local attestation fetch only
}

// AblationAgent sweeps attestation-service latency and measures the key
// transfer path that sits inside the migration's critical window.
func AblationAgent(rtts []time.Duration) ([]AgentRow, error) {
	if len(rtts) == 0 {
		rtts = []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
	}
	var rows []AgentRow
	for _, rtt := range rtts {
		row := AgentRow{RTT: rtt}

		// Without the agent: the target's attestation happens inside the
		// migration window.
		{
			w, err := sim.NewWorld(2)
			if err != nil {
				return nil, err
			}
			w.Service.SetLatency(rtt)
			dep := w.Deploy(testapps.CounterApp(1))
			src, err := w.Launch(dep, 0)
			if err != nil {
				return nil, err
			}
			reg := core.NewRegistry()
			reg.Add(dep)
			opts := w.Opts()
			if _, err := core.Prepare(src, opts); err != nil {
				return nil, err
			}
			blob, _, err := core.Dump(src, opts)
			if err != nil {
				_ = core.Cancel(src)
				return nil, err
			}
			t1, t2 := core.NewPipe()
			var wg sync.WaitGroup
			var inErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, inErr = core.MigrateIn(w.Hosts[1], reg, t2, opts)
			}()
			start := time.Now()
			if _, err := core.MigrateOutPrepared(src, blob, t1, opts); err != nil {
				return nil, err
			}
			wg.Wait()
			if inErr != nil {
				return nil, inErr
			}
			row.WithoutAgent = time.Since(start)
		}

		// With the agent: attestation + channel happen before the window.
		{
			w, err := sim.NewWorld(2)
			if err != nil {
				return nil, err
			}
			w.Service.SetLatency(rtt)
			agentApp := core.NewAgentApp(w.Owner)
			app := testapps.CounterApp(1)
			app.AgentMeasurement = enclave.MeasureApp(agentApp)
			src, err := w.Launch(w.Deploy(app), 0)
			if err != nil {
				return nil, err
			}
			reg := core.NewRegistry()
			reg.Add(core.NewDeployment(app, w.Owner))
			agent, err := core.StartAgent(w.Hosts[1], w.Owner)
			if err != nil {
				return nil, err
			}
			opts := w.Opts()
			opts.Agent = agent
			if _, err := core.Prepare(src, opts); err != nil {
				return nil, err
			}
			blob, _, err := core.Dump(src, opts)
			if err != nil {
				_ = core.Cancel(src)
				return nil, err
			}
			if err := agent.PreEstablish(src, opts); err != nil {
				_ = core.Cancel(src)
				return nil, err
			}
			t1, t2 := core.NewPipe()
			var wg sync.WaitGroup
			var inErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, inErr = core.MigrateIn(w.Hosts[1], reg, t2, opts)
			}()
			start := time.Now()
			if _, err := core.MigrateOutPrepared(src, blob, t1, opts); err != nil {
				return nil, err
			}
			wg.Wait()
			if inErr != nil {
				return nil, inErr
			}
			row.WithAgent = time.Since(start)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// NaiveRow reports the consistency ablation: how often a naive checkpoint
// of a hot bank enclave violates the balance invariant, vs two-phase.
type NaiveRow struct {
	Attempts           int
	NaiveViolations    int
	TwoPhaseViolations int
	NaiveDumpTime      time.Duration
	TwoPhaseTime       time.Duration
}

// AblationNaiveVsTwoPhase quantifies Fig. 3: the naive checkpoint's
// violation rate and the cost of the defence.
func AblationNaiveVsTwoPhase(attempts int) (NaiveRow, error) {
	if attempts <= 0 {
		attempts = 8
	}
	row := NaiveRow{Attempts: attempts}
	const initBalance = 1_000_000
	for i := 0; i < attempts; i++ {
		// Naive.
		{
			w, err := sim.NewWorld(2)
			if err != nil {
				return row, err
			}
			dep := w.Deploy(testapps.BankApp(2))
			rt, err := w.Launch(dep, 0)
			if err != nil {
				return row, err
			}
			if _, err := rt.ECall(0, testapps.BankInit, initBalance); err != nil {
				return row, err
			}
			done := make(chan error, 1)
			go func() {
				_, err := rt.ECall(0, testapps.BankTransfer, 1, 40_000_000)
				done <- err
			}()
			for {
				res, err := rt.ECall(1, testapps.BankSum)
				if err != nil {
					return row, err
				}
				if res[1] != initBalance {
					break
				}
			}
			start := time.Now()
			blob, err := attack.NaiveDump(rt)
			if err != nil {
				return row, err
			}
			row.NaiveDumpTime += time.Since(start)
			inc, err := migrateBlob(w, rt, dep, blob)
			if err != nil {
				return row, err
			}
			res, err := inc.Runtime.ECall(0, testapps.BankSum)
			if err != nil {
				return row, err
			}
			if res[0] != 2*initBalance {
				row.NaiveViolations++
			}
			// The (self-destroyed) source worker is still grinding through
			// its ecall; kick it so it observes destruction promptly.
			rt.RequestMigration()
			<-done
		}
		// Two-phase.
		{
			w, err := sim.NewWorld(2)
			if err != nil {
				return row, err
			}
			dep := w.Deploy(testapps.BankApp(2))
			rt, err := w.Launch(dep, 0)
			if err != nil {
				return row, err
			}
			if _, err := rt.ECall(0, testapps.BankInit, initBalance); err != nil {
				return row, err
			}
			done := make(chan error, 1)
			go func() {
				_, err := rt.ECall(0, testapps.BankTransfer, 1, 200_000)
				done <- err
			}()
			time.Sleep(500 * time.Microsecond)
			opts := w.Opts()
			start := time.Now()
			if _, err := core.Prepare(rt, opts); err != nil {
				return row, err
			}
			blob, _, err := core.Dump(rt, opts)
			if err != nil {
				_ = core.Cancel(rt)
				return row, err
			}
			row.TwoPhaseTime += time.Since(start)
			inc, err := migrateBlob(w, rt, dep, blob)
			if err != nil {
				return row, err
			}
			// Drain resumed work then check.
			for r := range inc.Results {
				if r.Err != nil {
					return row, r.Err
				}
			}
			res, err := inc.Runtime.ECall(1, testapps.BankSum)
			if err != nil {
				return row, err
			}
			if res[0] != 2*initBalance {
				row.TwoPhaseViolations++
			}
			<-done
		}
	}
	row.NaiveDumpTime /= time.Duration(attempts)
	row.TwoPhaseTime /= time.Duration(attempts)
	return row, nil
}

func migrateBlob(w *sim.World, src *enclave.Runtime, dep *core.Deployment, blob []byte) (*core.Incoming, error) {
	reg := core.NewRegistry()
	reg.Add(dep)
	t1, t2 := core.NewPipe()
	type res struct {
		inc *core.Incoming
		err error
	}
	ch := make(chan res, 1)
	go func() {
		inc, err := core.MigrateIn(w.Hosts[1], reg, t2, w.Opts())
		ch <- res{inc, err}
	}()
	if _, err := core.MigrateOutPrepared(src, blob, t1, w.Opts()); err != nil {
		return nil, err
	}
	r := <-ch
	return r.inc, r.err
}

// HWExtRow compares the paper's software mechanism against its proposed
// hardware extension for one enclave size.
type HWExtRow struct {
	HeapPages    int
	SoftwareTime time.Duration // prepare + dump + channel + restore + verify
	HardwareTime time.Duration // EMIGRATE + ESWPOUT* + ESWPIN* + EMIGRATEDONE
}

// AblationHardwareExtension measures both migration mechanisms over
// enclaves of increasing size.
func AblationHardwareExtension(heapPages []int) ([]HWExtRow, error) {
	if len(heapPages) == 0 {
		heapPages = []int{16, 64, 256, 1024}
	}
	var rows []HWExtRow
	for _, hp := range heapPages {
		row := HWExtRow{HeapPages: hp}

		// Software path.
		{
			w, err := sim.NewWorldConfig(sim.Config{Machines: 2, EPCFrames: 16384})
			if err != nil {
				return nil, err
			}
			app := testapps.CounterApp(1)
			app.HeapPages = hp
			dep := w.Deploy(app)
			src, err := w.Launch(dep, 0)
			if err != nil {
				return nil, err
			}
			reg := core.NewRegistry()
			reg.Add(dep)
			t1, t2 := core.NewPipe()
			var wg sync.WaitGroup
			var inErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, inErr = core.MigrateIn(w.Hosts[1], reg, t2, w.Opts())
			}()
			start := time.Now()
			if _, err := core.MigrateOut(src, t1, w.Opts()); err != nil {
				return nil, err
			}
			wg.Wait()
			if inErr != nil {
				return nil, inErr
			}
			row.SoftwareTime = time.Since(start)
		}

		// Hardware-extension path.
		{
			service, err := attest.NewService()
			if err != nil {
				return nil, err
			}
			owner, err := core.NewOwner(service)
			if err != nil {
				return nil, err
			}
			mk := func(name string) (*hwext.Platform, error) {
				m, err := sgx.NewMachine(sgx.Config{Name: name, Quantum: 2000, EPCFrames: 16384, MigrationExtension: true})
				if err != nil {
					return nil, err
				}
				service.RegisterMachine(m.AttestationPublic())
				return hwext.NewPlatform(enclave.NewBareHost(m), service, owner.Signer())
			}
			pa, err := mk("hw-a")
			if err != nil {
				return nil, err
			}
			pb, err := mk("hw-b")
			if err != nil {
				return nil, err
			}
			if err := hwext.EstablishMigrationKeys(pa, pb, service); err != nil {
				return nil, err
			}
			app := testapps.CounterApp(1)
			app.HeapPages = hp
			owner.ConfigureApp(app)
			dep := core.NewDeployment(app, owner)
			src, err := enclave.BuildSigned(pa.Host, dep.App, dep.Sig)
			if err != nil {
				return nil, err
			}
			tr, met := telemetryHandles()
			pb.Trace = tr.Begin("bench.a3.hwext", telemetry.Int("heap_pages", hp))
			pb.Metrics = met
			start := time.Now()
			tgt, err := hwext.MigrateTransparent(src, pb, dep)
			pb.Trace.Fail(err)
			if err != nil {
				return nil, fmt.Errorf("hw path (heap %d): %w", hp, err)
			}
			row.HardwareTime = time.Since(start)
			_ = tgt.Destroy()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PipelineRow compares one whole-VM live migration under the pipelined
// schedule (enclave dump and per-enclave channel legs overlapped with
// pre-copy rounds, chunked streaming sender) against the paper's serial
// Fig. 8 schedule on identical worlds.
type PipelineRow struct {
	Enclaves  int
	MemPages  int
	Pipelined vmm.LiveMigrationStats
	Serial    vmm.LiveMigrationStats
}

// AblationPipeline (A4) measures what the pipelined engine buys over the
// serial schedule: same VM, same enclaves, same link — one migration with
// the overlap knobs on, one with SerialDump + SerialChannelSetup. A single
// comparison can be flipped by scheduler noise, so the run retries a couple
// of times and keeps the last attempt.
func AblationPipeline(enclaves, memPages int, bandwidthBps float64) (PipelineRow, error) {
	if enclaves <= 0 {
		enclaves = 8
	}
	if memPages <= 0 {
		memPages = 4096
	}
	if bandwidthBps <= 0 {
		bandwidthBps = 250e6
	}
	row := PipelineRow{Enclaves: enclaves, MemPages: memPages}
	for attempt := 0; ; attempt++ {
		ser, err := pipelineMigrate(enclaves, memPages, bandwidthBps, true)
		if err != nil {
			return row, err
		}
		pip, err := pipelineMigrate(enclaves, memPages, bandwidthBps, false)
		if err != nil {
			return row, err
		}
		row.Pipelined, row.Serial = *pip, *ser
		if (pip.TotalTime < ser.TotalTime && pip.Downtime < ser.Downtime) || attempt >= 2 {
			return row, nil
		}
	}
}

// pipelineMigrate builds a two-node world, populates a VM and live-migrates
// it under either schedule, returning the stats.
func pipelineMigrate(enclaves, memPages int, bandwidthBps float64, serial bool) (*vmm.LiveMigrationStats, error) {
	runtime.GC()
	service, err := attest.NewService()
	if err != nil {
		return nil, err
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		return nil, err
	}
	src, err := vmm.NewNode(vmm.NodeConfig{Name: "a4-src", EPCFrames: 32768}, service)
	if err != nil {
		return nil, err
	}
	dst, err := vmm.NewNode(vmm.NodeConfig{Name: "a4-dst", EPCFrames: 32768}, service)
	if err != nil {
		return nil, err
	}
	app := testapps.CounterApp(2)
	owner.ConfigureApp(app)
	dep := core.NewDeployment(app, owner)
	src.Registry.Add(dep)
	dst.Registry.Add(dep)
	vm, err := src.CreateVM(vmm.VMConfig{Name: "a4-vm", MemPages: memPages, VCPUs: 4, EPCQuota: 24576})
	if err != nil {
		return nil, err
	}
	if err := fillGuest(vm, 4); err != nil {
		return nil, err
	}
	if _, err := vm.OS.LaunchPlainProcess("app", 256, 200*time.Microsecond); err != nil {
		return nil, err
	}
	for i := 0; i < enclaves; i++ {
		if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("e%d", i), "counter", owner, vmWorkload); err != nil {
			return nil, err
		}
	}
	time.Sleep(2 * time.Millisecond)
	tr, met := telemetryHandles()
	tvm, stats, err := vmm.LiveMigrate(vm, dst, &vmm.LiveMigrationConfig{
		BandwidthBps:       bandwidthBps,
		SerialDump:         serial,
		SerialChannelSetup: serial,
		Tracer:             tr,
		Metrics:            met,
	})
	if err != nil {
		return nil, err
	}
	_ = tvm.Shutdown()
	return stats, nil
}

// DrainRow is one point of the A6 sweep: emptying a loaded host through
// the fleet controller at a given per-host migration concurrency.
type DrainRow struct {
	Concurrency int
	Enclaves    int
	Elapsed     time.Duration
	Moved       int
	Passes      int
}

// AblationDrain (A6) measures drain time-to-empty versus the fleet's
// per-host concurrency bound. Each point is a fresh 3-daemon fleet over
// real TCP with every enclave on one host; `sgxfleet drain` must move all
// of them to the two peers. Migrations from one source serialize on its
// semaphore, so the sweep shows how much of the drain is parallelizable
// before the hosts' EPC and scheduling become the bottleneck.
func AblationDrain(enclaves int, concurrency []int) ([]DrainRow, error) {
	if enclaves <= 0 {
		enclaves = 24
	}
	if len(concurrency) == 0 {
		concurrency = []int{1, 2, 4, 8}
	}
	// The in-process daemons narrate every launch and migration through the
	// global logger; hundreds of such lines would bury the table and put
	// stdout writes inside the timed region.
	logOut := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(logOut)
	var rows []DrainRow
	for _, c := range concurrency {
		hosts, err := testhost.StartN(3, testhost.Options{})
		if err != nil {
			return nil, err
		}
		row, err := drainOnce(hosts, enclaves, c)
		testhost.CloseAll(hosts)
		if err != nil {
			return nil, fmt.Errorf("concurrency %d: %w", c, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func drainOnce(hosts []*testhost.Host, enclaves, concurrency int) (DrainRow, error) {
	row := DrainRow{Concurrency: concurrency, Enclaves: enclaves}
	for i := 0; i < enclaves; i++ {
		resp, err := fleet.Request(hosts[0].Addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}, 10*time.Second)
		if err != nil {
			return row, err
		}
		if resp.Err != "" {
			return row, fmt.Errorf("launch: %s", resp.Err)
		}
	}
	f, err := fleet.New(fleet.Config{
		Hosts:           testhost.Addrs(hosts),
		Policy:          &fleet.MostFreeEPC{},
		RequestTimeout:  30 * time.Second,
		PerHostInflight: concurrency,
	})
	if err != nil {
		return row, err
	}
	start := time.Now()
	rep, err := fleet.Drain(f, hosts[0].Addr)
	if err != nil {
		return row, err
	}
	row.Elapsed = time.Since(start)
	row.Moved = rep.Moved + rep.MovedAfterError
	row.Passes = rep.Passes
	if row.Moved != enclaves {
		return row, fmt.Errorf("drained %d of %d enclaves (%s)", row.Moved, enclaves, rep.Summary())
	}
	return row, nil
}
