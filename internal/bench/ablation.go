package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/hwext"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testapps"
	"repro/internal/vmm"
)

// migrateOverPipe moves src from w's first host to its second over an
// in-process pipe and returns what the target restored and how long the
// two halves took together. A nil blob means src is not prepared yet and
// core.MigrateOut runs the whole migration; otherwise src has been
// prepared and dumped to blob and core.MigrateOutPrepared takes it from
// there.
func migrateOverPipe(w *sim.World, src *enclave.Runtime, blob []byte, opts *core.Options) (*core.Incoming, time.Duration, error) {
	t1, t2 := core.NewPipe()
	type result struct {
		inc *core.Incoming
		err error
	}
	in := make(chan result, 1)
	go func() {
		inc, err := core.MigrateIn(w.Hosts[1], w.Registry, t2, opts)
		if err != nil {
			_ = t2.Close() // the source must not stream into a target that gave up
		}
		in <- result{inc, err}
	}()
	start := time.Now()
	var err error
	if blob == nil {
		_, err = core.MigrateOut(src, t1, opts)
	} else {
		_, err = core.MigrateOutPrepared(src, blob, t1, opts)
	}
	if err != nil {
		_ = t1.Close() // the target half must not wait for a source that gave up
	}
	r := <-in
	took := time.Since(start)
	if err == nil {
		err = r.err
	}
	return r.inc, took, err
}

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
	var rows []AgentRow
	for _, rtt := range rtts {
		without, err := agentWindow(rtt, false)
		if err != nil {
			return nil, err
		}
		with, err := agentWindow(rtt, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AgentRow{RTT: rtt, WithoutAgent: without, WithAgent: with})
	}
	return rows, nil
}

// agentWindow times the migration of a prepared, dumped counter enclave
// with the attestation service rtt away. Without the agent the target's
// attestation happens inside the window; with it, attestation and channel
// are established before the window opens.
func agentWindow(rtt time.Duration, withAgent bool) (time.Duration, error) {
	w, err := sim.NewWorld(2)
	if err != nil {
		return 0, err
	}
	w.Service.SetLatency(rtt)
	opts := w.Opts()
	app := testapps.CounterApp(1)
	if withAgent {
		app.AgentMeasurement = enclave.MeasureApp(core.NewAgentApp(w.Owner))
		if opts.Agent, err = core.StartAgent(w.Hosts[1], w.Owner); err != nil {
			return 0, err
		}
	}
	src, err := w.Launch(w.Deploy(app), 0)
	if err != nil {
		return 0, err
	}
	if _, err := core.Prepare(src, opts); err != nil {
		return 0, err
	}
	blob, _, err := core.Dump(src, opts)
	if err == nil && withAgent {
		err = opts.Agent.PreEstablish(src, opts)
	}
	if err != nil {
		_ = core.Cancel(src)
		return 0, err
	}
	_, took, err := migrateOverPipe(w, src, blob, opts)
	return took, err
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

// bankBalance is what each of the bank enclave's two accounts starts with;
// every transfer keeps their sum at twice this.
const bankBalance = 1_000_000

// AblationNaiveVsTwoPhase quantifies Fig. 3: the naive checkpoint's
// violation rate and the cost of the defence.
func AblationNaiveVsTwoPhase(attempts int) (NaiveRow, error) {
	row := NaiveRow{Attempts: attempts}
	for i := 0; i < attempts; i++ {
		// Naive: dump mid-transfer, once the accounts are seen out of
		// balance.
		w, rt, done, err := busyBank(40_000_000)
		if err != nil {
			return row, err
		}
		if err := testapps.AwaitDebit(rt, bankBalance); err != nil {
			return row, err
		}
		start := time.Now()
		blob, err := attack.NaiveDump(rt)
		if err != nil {
			return row, err
		}
		row.NaiveDumpTime += time.Since(start)
		inc, _, err := migrateOverPipe(w, rt, blob, w.Opts())
		if err != nil {
			return row, err
		}
		if res, err := inc.Runtime.ECall(0, testapps.BankSum); err != nil {
			return row, err
		} else if res[0] != 2*bankBalance {
			row.NaiveViolations++
		}
		// The (self-destroyed) source worker is still grinding through
		// its ecall; kick it so it observes destruction promptly.
		rt.RequestMigration()
		<-done

		// Two-phase.
		if w, rt, done, err = busyBank(200_000); err != nil {
			return row, err
		}
		if err := testapps.AwaitDebit(rt, bankBalance); err != nil {
			return row, err
		}
		opts := w.Opts()
		start = time.Now()
		if _, err := core.Prepare(rt, opts); err != nil {
			return row, err
		}
		if blob, _, err = core.Dump(rt, opts); err != nil {
			_ = core.Cancel(rt)
			return row, err
		}
		row.TwoPhaseTime += time.Since(start)
		if inc, _, err = migrateOverPipe(w, rt, blob, opts); err != nil {
			return row, err
		}
		// Drain resumed work then check.
		for r := range inc.Results {
			if r.Err != nil {
				return row, r.Err
			}
		}
		if res, err := inc.Runtime.ECall(1, testapps.BankSum); err != nil {
			return row, err
		} else if res[0] != 2*bankBalance {
			row.TwoPhaseViolations++
		}
		// The transfer was migrated mid-flight, so its source caller lost
		// the enclave; any other error (a refused entry) is not a run.
		if err := <-done; err != nil && !errors.Is(err, enclave.ErrDestroyed) {
			return row, fmt.Errorf("bench: two-phase source transfer: %w", err)
		}
	}
	row.NaiveDumpTime /= time.Duration(attempts)
	row.TwoPhaseTime /= time.Duration(attempts)
	return row, nil
}

// busyBank launches a bank enclave on the first of two hosts, with
// bankBalance in each account and a transfer of the given number of
// rounds running on worker 0; done reports when that ecall returns.
func busyBank(rounds uint64) (*sim.World, *enclave.Runtime, <-chan error, error) {
	w, err := sim.NewWorld(2)
	if err != nil {
		return nil, nil, nil, err
	}
	rt, err := w.Launch(w.Deploy(testapps.BankApp(2)), 0)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := rt.ECall(0, testapps.BankInit, bankBalance); err != nil {
		return nil, nil, nil, err
	}
	done := make(chan error, 1)
	go func() {
		_, err := rt.ECall(0, testapps.BankTransfer, 1, rounds)
		done <- err
	}()
	return w, rt, done, nil
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
			src, err := w.Launch(w.Deploy(app), 0)
			if err != nil {
				return nil, err
			}
			if _, row.SoftwareTime, err = migrateOverPipe(w, src, nil, w.Opts()); err != nil {
				return nil, err
			}
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

// PipelineRow compares whole-VM live migrations under the pipelined
// schedule (enclave dump and per-enclave channel legs overlapped with
// pre-copy rounds, chunked streaming sender) against the paper's serial
// Fig. 8 schedule on identical worlds.
type PipelineRow struct {
	Enclaves   int
	GuestPages int
	Resident   int // guest pages the bulk round carried
	Serial     ScheduleStats
	Pipelined  ScheduleStats
}

// ScheduleStats is what A4 reports about one schedule: for each measure,
// the median over PipelineRuns migrations.
type ScheduleStats struct {
	Total, Downtime time.Duration
	Dump            time.Duration // EnclaveDumpTime
	Overlap         time.Duration // DumpPrecopyOverlap: the dump hidden behind pre-copy
	ChannelWait     time.Duration // what the window spent on channel legs
	KeyRelease      time.Duration // KeyReleaseTime: the serial commit inside the window
	Restore         time.Duration // EnclaveRestoreTime: the serial rebuild after it
	Unavailable     time.Duration // MaxEnclaveUnavailable
}

// PipelineRuns is how many migrations A4 makes of each schedule.
const PipelineRuns = 3

// AblationPipeline (A4) measures what the pipelined engine buys over the
// paper's schedule: same VM, same enclaves, same link. It alternates the
// two schedules PipelineRuns times and reports each measure's median.
func AblationPipeline(enclaves int) (PipelineRow, error) {
	var serial, pipelined []vmm.LiveMigrationStats
	var resident []int
	for i := 0; i < PipelineRuns; i++ {
		ser, err := migrateVM(enclaves, true)
		if err != nil {
			return PipelineRow{}, err
		}
		pip, err := migrateVM(enclaves, false)
		if err != nil {
			return PipelineRow{}, err
		}
		serial, pipelined = append(serial, ser), append(pipelined, pip)
		resident = append(resident, ser.RoundDirtyPages[0], pip.RoundDirtyPages[0])
	}
	return PipelineRow{
		Enclaves:   enclaves,
		GuestPages: guestPages,
		Resident:   median(resident),
		Serial:     medianSchedule(serial),
		Pipelined:  medianSchedule(pipelined),
	}, nil
}

// medianSchedule takes the median of each ScheduleStats measure over runs.
func medianSchedule(runs []vmm.LiveMigrationStats) ScheduleStats {
	med := func(measure func(*vmm.LiveMigrationStats) time.Duration) time.Duration {
		vals := make([]time.Duration, len(runs))
		for i := range runs {
			vals[i] = measure(&runs[i])
		}
		return median(vals)
	}
	type s = vmm.LiveMigrationStats
	return ScheduleStats{
		Total:       med(func(r *s) time.Duration { return r.TotalTime }),
		Downtime:    med(func(r *s) time.Duration { return r.Downtime }),
		Dump:        med(func(r *s) time.Duration { return r.EnclaveDumpTime }),
		Overlap:     med(func(r *s) time.Duration { return r.DumpPrecopyOverlap }),
		ChannelWait: med(func(r *s) time.Duration { return r.ChannelWait }),
		KeyRelease:  med(func(r *s) time.Duration { return r.KeyReleaseTime }),
		Restore:     med(func(r *s) time.Duration { return r.EnclaveRestoreTime }),
		Unavailable: med(func(r *s) time.Duration { return r.MaxEnclaveUnavailable() }),
	}
}
