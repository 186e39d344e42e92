package fleet_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hostproto"
	"repro/internal/telemetry"
	"repro/internal/testhost"
)

// TestDrainJournalAudit is the observability plane's acceptance test: a
// two-daemon fleet drains 12 enclaves while every scheduled migration
// suffers one injected transport fault at a random operation, and the
// fleet-merged journal must then tell the truth about the key-release
// commit point, as the invariant checker reads it: every migration that
// ended on the target (Moved or MovedAfterError) has EXACTLY ONE
// key-release record — on the source host, stamped with the migration's
// TraceID — no matter how many faulted attempts preceded it, and one
// restore-finish; every Lost migration has its self-destroy record but no
// restore-finish, the journal's shape of the protocol's accepted loss
// window; and the journal's live instances are the hosts' listings.
func TestDrainJournalAudit(t *testing.T) {
	const enclaves = 12

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

	hosts, err := testhost.StartN(2, testhost.Options{MigrationHook: hook, Sample: 1})
	if err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	testhost.Check(t, hosts...)
	defer testhost.CloseAll(hosts)
	met := telemetry.NewMetrics()
	f, err := fleet.New(fleet.Config{
		Hosts:          testhost.Addrs(hosts),
		RequestTimeout: 30 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		Seed:           7,
		Metrics:        met,
		Tracer:         telemetry.New(),
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}

	// Probe migration measures M, the transport op count of one clean run,
	// so the random faults can land anywhere in the protocol including the
	// destroy-before-release commit window.
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
	rng := rand.New(rand.NewSource(41))
	mu.Lock()
	for _, id := range ids {
		faults[id] = 1 + rng.Intn(ops)
	}
	mu.Unlock()

	rep, err := fleet.Drain(f, hosts[0].Addr)
	if err != nil {
		t.Fatalf("drain: %v (%s)", err, rep.Summary())
	}
	t.Logf("drain under faults: %s", rep.Summary())
	if got := rep.Moved + rep.MovedAfterError + rep.Lost; got != enclaves || rep.Failed != 0 {
		t.Fatalf("outcomes do not cover the fleet: %s", rep.Summary())
	}

	// One more poll federates each host's journal tail so the very last
	// migrations' records are in the merged stream.
	if err := f.Poll(); err != nil {
		t.Fatalf("post-drain poll: %v", err)
	}
	recs, _ := f.Journal().Since(0)
	if len(recs) == 0 {
		t.Fatalf("fleet journal empty after a %d-enclave drain", enclaves)
	}

	if v := fleet.CheckInvariants(recs, f.Snapshot(), rep.Results); len(v) != 0 {
		t.Fatalf("single-instance violations: %v", v)
	}
	for _, res := range rep.Results {
		if res.TraceID.IsZero() {
			t.Fatalf("%s: no TraceID on result — fleet tracer not joining the journal", res.ID)
		}
		if res.Outcome == fleet.Moved || res.Outcome == fleet.MovedAfterError {
			rec, ok := f.KeyReleaseAudit(res)
			if !ok {
				t.Fatalf("%s: KeyReleaseAudit found no record", res.ID)
			}
			if rec.Host != res.From || rec.TraceID != res.TraceID {
				t.Fatalf("%s: audit record mismatched: host=%s trace=%s", res.ID, rec.Host, rec.TraceID)
			}
		}
	}
}

// TestFederationAggregates drives a small clean fleet and pins the
// federation surfaces: EventsSince tailing, the windowed rate rows, the
// status JSON encoding, and the /fleet aggregate document.
func TestFederationAggregates(t *testing.T) {
	hosts, f, _ := startFleet(t, 2, testhost.Options{Sample: 1})
	ids := launchOn(t, hosts[0].Addr, 2)

	if err := f.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if _, err := fleet.Request(hosts[0].Addr, hostproto.Command{
		Op: hostproto.OpMigrateOut, ID: ids[0], Target: hosts[1].Addr,
	}, 30*time.Second); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := f.Poll(); err != nil {
		t.Fatalf("second poll: %v", err)
	}

	// The migration's protocol events arrived through the scrape and the
	// cursor tail sees them exactly once.
	recs, next := f.EventsSince(0)
	if len(recs) == 0 {
		t.Fatalf("no federated events after a migration")
	}
	kinds := map[telemetry.EventKind]int{}
	for _, r := range recs {
		if r.Host == "" {
			t.Fatalf("merged record without origin host: %+v", r)
		}
		kinds[r.Kind]++
	}
	for _, want := range []telemetry.EventKind{
		telemetry.EventQuiesce, telemetry.EventKeyRelease, telemetry.EventSelfDestroy, telemetry.EventRestoreFinish,
	} {
		if kinds[want] == 0 {
			t.Fatalf("merged journal missing %s (kinds: %v)", want, kinds)
		}
	}
	if tail, next2 := f.EventsSince(next); len(tail) != 0 || next2 != next {
		t.Fatalf("cursor tail re-delivered %d records", len(tail))
	}

	// Two polls → a computable window with the migration counted.
	var migRate float64
	for _, r := range f.Rates() {
		if r.Addr == hosts[0].Addr {
			if r.WindowS <= 0 {
				t.Fatalf("no sampled window for %s after two polls", r.Addr)
			}
			migRate = r.Migrations
		}
	}
	if migRate <= 0 {
		t.Fatalf("migration rate is %v after a migration inside the window", migRate)
	}

	rows := fleet.StatusJSON(f.Snapshot())
	if len(rows) != 2 || !rows[0].Healthy || rows[0].TotalEPC == 0 {
		t.Fatalf("status rows malformed: %+v", rows)
	}
	var buf bytes.Buffer
	if err := f.WriteFleetJSON(&buf); err != nil {
		t.Fatalf("WriteFleetJSON: %v", err)
	}
	var doc struct {
		Hosts []fleet.HostStatusJSON `json:"hosts"`
		Rates []fleet.HostRates      `json:"rates"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fleet document does not parse: %v\n%s", err, buf.String())
	}
	if len(doc.Hosts) != 2 || len(doc.Rates) != 2 {
		t.Fatalf("fleet document incomplete: %d hosts, %d rates", len(doc.Hosts), len(doc.Rates))
	}
}

// TestFederationSurvivesDaemonRestart: the fleet's per-host cursor outlives
// the daemon it was taken from. A restarted daemon's journal starts again
// at Seq 1, so the old cursor points above its head; the next scrape must
// deliver the post-restart events (and pull the cursor back) rather than
// drop everything until the new Seq catches up.
func TestFederationSurvivesDaemonRestart(t *testing.T) {
	hosts, f, _ := startFleet(t, 2, testhost.Options{})
	migrate := func(id string) {
		t.Helper()
		if _, err := fleet.Request(hosts[0].Addr, hostproto.Command{
			Op: hostproto.OpMigrateOut, ID: id, Target: hosts[1].Addr,
		}, 30*time.Second); err != nil {
			t.Fatalf("migrate %s: %v", id, err)
		}
	}
	keyReleases := func(recs []telemetry.Record) (n int) {
		for _, r := range recs {
			if r.Host == hosts[0].Addr && r.Kind == telemetry.EventKeyRelease {
				n++
			}
		}
		return n
	}

	// Two migrations before the restart put the source's cursor well above
	// what one migration after it will reach.
	for _, id := range launchOn(t, hosts[0].Addr, 2) {
		migrate(id)
	}
	if err := f.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	before, cursor := f.EventsSince(0)
	if got := keyReleases(before); got != 2 {
		t.Fatalf("%d key-release records from the source before the restart, want 2", got)
	}

	if err := hosts[0].Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	migrate(launchOn(t, hosts[0].Addr, 1)[0])
	if err := f.Poll(); err != nil {
		t.Fatalf("poll after restart: %v", err)
	}
	after, cursor := f.EventsSince(cursor)
	if got := keyReleases(after); got != 1 {
		t.Fatalf("%d key-release records from the restarted source in the next scrape, want 1 (%d records in all)", got, len(after))
	}

	// The cursor now belongs to the new journal: nothing is delivered twice.
	if err := f.Poll(); err != nil {
		t.Fatalf("third poll: %v", err)
	}
	if again, _ := f.EventsSince(cursor); len(again) != 0 {
		t.Fatalf("third scrape re-delivered %d records", len(again))
	}
}
