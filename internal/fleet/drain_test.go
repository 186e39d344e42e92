package fleet_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hostproto"
	"repro/internal/telemetry"
	"repro/internal/testhost"
)

// TestDrainConvergesUnderFaults is the fleet's central property test: a
// 3-host fleet with 24 enclaves on one host is drained while EVERY
// scheduled migration suffers one injected transport fault at a random
// operation (torn-TCP semantics). The drain must still converge: every
// enclave ends live on exactly one host or is tallied Lost (the
// protocol's accepted loss window between the source's key-release
// commit point and the target's restore), the drained host holds no
// sessions, no host holds an enclave without a session or a stray EPC
// frame (the fleet's ledger check), the inflight gauges are back at 0,
// and no goroutine outlives the sweep. The same fleet
// also drains clean at one and at four migrations per host, where every
// enclave must move.
func TestDrainConvergesUnderFaults(t *testing.T) {
	for _, c := range []struct {
		inflight int
		faulted  bool
	}{{2, true}, {1, false}, {4, false}} {
		name := fmt.Sprintf("inflight=%d", c.inflight)
		if c.faulted {
			name += ",faults"
		}
		t.Run(name, func(t *testing.T) { drainConverges(t, c.inflight, c.faulted) })
	}
}

func drainConverges(t *testing.T, inflight int, faulted bool) {
	const enclaves = 24
	maxGoroutines := runtime.NumGoroutine() + 8

	// The hook is installed before the daemons serve; per-migration fault
	// behaviour lives in this table, keyed by the migrating session's id.
	// Each entry injects one fault at its 1-based op index and closes the
	// wire (torn TCP), then is consumed so retries run clean.
	var mu sync.Mutex
	faults := map[string]int{}
	var probeFT *core.FaultyTransport
	probeID := ""
	hook := func(id string, ts core.Transport) core.Transport {
		mu.Lock()
		defer mu.Unlock()
		if failAt, ok := faults[id]; ok {
			delete(faults, id)
			return core.NewFaultyTransport(ts, failAt, true)
		}
		if id == probeID && probeFT == nil {
			probeFT = core.NewFaultyTransport(ts, 0, false)
			return probeFT
		}
		return ts
	}

	hosts, err := testhost.StartN(3, testhost.Options{MigrationHook: hook})
	if err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	testhost.Check(t, hosts...)
	defer testhost.CloseAll(hosts)
	met := telemetry.NewMetrics()
	f, err := fleet.New(fleet.Config{
		Hosts:           testhost.Addrs(hosts),
		RequestTimeout:  30 * time.Second,
		BackoffBase:     time.Millisecond,
		BackoffMax:      20 * time.Millisecond,
		Seed:            7,
		Metrics:         met,
		PerHostInflight: inflight,
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}

	// Probe: one clean migration h0→h1 through a counting transport
	// measures M, the op count of a full protocol run, so the fault sweep
	// can cover every abort point including the commit-point window.
	probe := launchOn(t, hosts[0].Addr, 1)[0]
	mu.Lock()
	probeID = probe
	mu.Unlock()
	if _, err := fleet.Request(hosts[0].Addr, hostproto.Command{
		Op: hostproto.OpMigrateOut, ID: probe, Target: hosts[1].Addr,
	}, 30*time.Second); err != nil {
		t.Fatalf("probe migration: %v", err)
	}
	mu.Lock()
	ops := 0
	if probeFT != nil {
		ops = probeFT.Ops()
	}
	mu.Unlock()
	if ops < 6 {
		t.Fatalf("probe counted %d transport ops, too few to sweep", ops)
	}

	ids := launchOn(t, hosts[0].Addr, enclaves)
	if faulted {
		rng := rand.New(rand.NewSource(99))
		mu.Lock()
		for _, id := range ids {
			faults[id] = 1 + rng.Intn(ops)
		}
		mu.Unlock()
	}

	rep, err := fleet.Drain(f, hosts[0].Addr)
	if err != nil {
		t.Fatalf("drain: %v (%s)", err, rep.Summary())
	}
	t.Logf("drain: %s", rep.Summary())
	if moved := rep.Moved + rep.MovedAfterError; !faulted && moved != enclaves {
		t.Fatalf("clean drain moved %d of %d enclaves: %s", moved, enclaves, rep.Summary())
	}
	if got := rep.Moved + rep.MovedAfterError + rep.Lost; got != enclaves || rep.Failed != 0 {
		for _, res := range rep.Results {
			if res.Outcome == fleet.Failed {
				t.Logf("failed: %s after %d attempts: %v", res.ID, res.Attempts, res.Err)
			}
		}
		t.Fatalf("outcomes do not cover the fleet: %s", rep.Summary())
	}
	mu.Lock()
	unfired := len(faults)
	mu.Unlock()
	if unfired != 0 {
		t.Fatalf("%d injected faults never fired — the sweep did not actually test fault paths", unfired)
	}

	// Reconcile the reported outcomes against the hosts' own state.
	if err := f.Poll(); err != nil {
		t.Fatalf("post-drain poll: %v", err)
	}
	snap := f.Snapshot()
	src := snap[0]
	for _, st := range snap {
		if st.Addr == hosts[0].Addr {
			src = st
		}
	}
	if len(src.Stats.Live) != 0 || len(src.Stats.Dead) != 0 {
		t.Fatalf("drained host still holds sessions: %+v", src.Stats)
	}

	// The single-instance guarantee, checked by machine over the merged
	// journal, the hosts' listings and the drain's results: never two live
	// copies, a key release and a restore for every move, destroy before
	// release, nothing restored for a lost enclave, and every enclave live
	// on as many hosts as the journal says.
	recs, _ := f.Journal().Since(0)
	if v := fleet.CheckInvariants(recs, snap, rep.Results); len(v) != 0 {
		t.Fatalf("single-instance violations: %v", v)
	}
	for _, res := range rep.Results {
		if faulted && res.Outcome == fleet.Moved && res.Attempts < 2 {
			t.Fatalf("%s moved on attempt %d despite an injected first-attempt fault", res.ID, res.Attempts)
		}
	}

	// Aborted half-restores from Lost migrations returned their enclaves
	// and frames: the ledger check sees that at teardown.
	for _, st := range snap {
		if len(st.Stats.Dead) != 0 {
			t.Fatalf("host %s holds dead sessions: %v", st.Addr, st.Stats.Dead)
		}
	}

	// The queue drained its own accounting too.
	if d := met.Gauge("fleet.queue.depth").Value(); d != 0 {
		t.Fatalf("queue depth gauge %d after drain, want 0", d)
	}
	for _, h := range hosts {
		if v := met.Gauge("fleet.inflight." + h.Addr).Value(); v != 0 {
			t.Fatalf("inflight gauge for %s is %d after drain, want 0", h.Addr, v)
		}
	}
	if faulted && rep.Moved > 0 && met.Counter("fleet.retries").Value() == 0 {
		t.Fatalf("enclaves moved after faults but the retry counter never incremented")
	}

	// Nothing is left parked anywhere: fleet workers, daemon handlers, and
	// migration goroutines have all unwound.
	testhost.CloseAll(hosts)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > maxGoroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), maxGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainUnknownHost pins the error paths that need no fleet I/O.
func TestDrainUnknownHost(t *testing.T) {
	f, err := fleet.New(fleet.Config{Hosts: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	if _, err := fleet.Drain(f, "127.0.0.1:2"); err == nil {
		t.Fatalf("draining an unmanaged host succeeded")
	}
	// The one managed host refuses connections: the drain must report the
	// poll failure, not spin.
	if _, err := fleet.Drain(f, "127.0.0.1:1"); err == nil {
		t.Fatalf("draining an unreachable host succeeded")
	}
}
