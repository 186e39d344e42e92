package hostd_test

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/hostproto"
	"repro/internal/telemetry"
	"repro/internal/testhost"
)

func startHost(t *testing.T, name string, seed uint64, sample float64) *testhost.Host {
	t.Helper()
	h, err := testhost.Start(name, seed, testhost.Options{Sample: sample})
	if err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	testhost.Check(t, h)
	t.Cleanup(h.Close)
	return h
}

// TestCrossHostTraceMerge drives a real localhost migration between two
// in-process sgxhost daemons and checks the tentpole property: one
// migration is one trace — a single TraceID spanning client, source, and
// target spans, with no span left open anywhere.
func TestCrossHostTraceMerge(t *testing.T) {
	src := startHost(t, "alpha", 1, 1)
	dst := startHost(t, "beta", 2, 1)
	client := telemetry.NewSeeded(3)

	root := client.Begin("client.migrate")
	launch, err := fleet.TracedRequest(client, root, src.Addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}, 0)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if _, err := fleet.TracedRequest(client, root, src.Addr, hostproto.Command{
		Op: hostproto.OpMigrateOut, ID: launch.ID, Target: dst.Addr,
	}, 0); err != nil {
		t.Fatalf("migrate-out: %v", err)
	}
	root.End()

	recs := client.Completed()
	traceIDs := map[telemetry.TraceID]bool{}
	names := map[string]int{}
	for _, r := range recs {
		traceIDs[r.TraceID] = true
		names[r.Name]++
	}
	if len(traceIDs) != 1 {
		t.Fatalf("merged trace has %d TraceIDs, want 1: %v (spans %v)", len(traceIDs), traceIDs, names)
	}
	want := telemetry.TraceID{}
	for id := range traceIDs {
		want = id
	}
	if want != root.Context().TraceID {
		t.Fatalf("merged TraceID %v is not the client root's %v", want, root.Context().TraceID)
	}
	// Client, source-phase, wire, and target-phase spans must all be there —
	// exactly once each: hosts re-export their whole per-trace buffer on
	// every response, so a count > 1 means Adopt's dedup regressed.
	for _, name := range []string{
		"client.launch", "client.migrate", "client.migrate-out",
		"host.launch", "host.migrateout",
		"core.prepare", "core.dump", "core.channel", "core.wire", "core.keyrelease",
		"host.migratein", "core.target.prepare", "core.target.finish", "core.restore",
	} {
		if names[name] != 1 {
			t.Errorf("merged trace has %d %q spans, want exactly 1; have %v", names[name], name, names)
		}
	}
	// The migrated enclave really is on the target.
	listSp := client.Begin("client.list")
	defer listSp.End()
	list, err := fleet.TracedRequest(client, listSp, dst.Addr, hostproto.Command{Op: hostproto.OpList}, 0)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.IDs) != 1 {
		t.Fatalf("target has %d enclaves, want 1: %v", len(list.IDs), list.IDs)
	}
	// The source reaped the migrated-away session; no span is left open on
	// any party and no enclave or EPC frame outlives its session, which the
	// hosts' ledger check sees at teardown.
	if srcStats := src.S.Stats(); len(srcStats.Live) != 0 || len(srcStats.Dead) != 0 {
		t.Fatalf("source still holds sessions after migrate-out: %+v", srcStats)
	}
}

// TestSamplingZeroAcrossHosts checks the always-on-sampling contract over
// the real wire: at p=0 a successful operation leaves no spans anywhere,
// while a failed migration is promoted everywhere the trace touched.
func TestSamplingZeroAcrossHosts(t *testing.T) {
	src := startHost(t, "alpha", 4, 1)
	client := telemetry.NewSeeded(5)
	client.SetSampling(0)

	// Success at p=0: dropped on both client and host.
	root := client.Begin("client.manual")
	if root.Context().Sampled {
		t.Fatalf("p=0 root span is sampled")
	}
	if _, err := fleet.TracedRequest(client, root, src.Addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}, 0); err != nil {
		t.Fatalf("launch: %v", err)
	}
	root.End()
	if got := client.Completed(); len(got) != 0 {
		t.Fatalf("p=0 successful trace kept %d client spans, want 0: %+v", len(got), got)
	}
	if got := src.S.Tracer().Completed(); len(got) != 0 {
		t.Fatalf("p=0 successful trace kept %d host spans, want 0: %+v", len(got), got)
	}

	// Failure at p=0: migrating a nonexistent enclave fails on the host;
	// both sides keep the trace.
	root2 := client.Begin("client.migrate")
	if _, err := fleet.TracedRequest(client, root2, src.Addr, hostproto.Command{
		Op: hostproto.OpMigrateOut, ID: "no-such-enclave", Target: "127.0.0.1:1",
	}, 0); err == nil {
		t.Fatalf("migrate-out of unknown enclave succeeded")
	}
	root2.End()
	recs := client.Completed()
	names := map[string]bool{}
	for _, r := range recs {
		if r.TraceID != root2.Context().TraceID {
			t.Errorf("kept span %q from wrong trace", r.Name)
		}
		names[r.Name] = true
	}
	if !names["host.migrateout"] || !names["client.migrate-out"] || !names["client.migrate"] {
		t.Fatalf("failed trace not fully kept at p=0: %v", names)
	}
}

// TestOpStats pins the OpStats wire behaviour over a real connection:
// counts, EPC accounting, and live-session listing reflect the host's
// actual state before and after a launch.
func TestOpStats(t *testing.T) {
	h := startHost(t, "alpha", 6, 1)
	client := telemetry.NewSeeded(7)
	root := client.Begin("client.stats")
	defer root.End()

	empty, err := fleet.TracedRequest(client, root, h.Addr, hostproto.Command{Op: hostproto.OpStats}, 0)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if empty.Stats.Name != "alpha" {
		t.Fatalf("stats name %q, want alpha", empty.Stats.Name)
	}
	if len(empty.Stats.Live) != 0 || len(empty.Stats.Dead) != 0 {
		t.Fatalf("fresh host reports sessions: %+v", empty.Stats)
	}
	if empty.Stats.FreeEPC != empty.Stats.TotalEPC || empty.Stats.TotalEPC == 0 {
		t.Fatalf("fresh host EPC accounting: %d free of %d", empty.Stats.FreeEPC, empty.Stats.TotalEPC)
	}

	launch, err := fleet.TracedRequest(client, root, h.Addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}, 0)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	got, err := fleet.TracedRequest(client, root, h.Addr, hostproto.Command{Op: hostproto.OpStats}, 0)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(got.Stats.Live) != 1 || got.Stats.Live[0] != launch.ID {
		t.Fatalf("stats live sessions %v, want [%s]", got.Stats.Live, launch.ID)
	}
	if got.Stats.FreeEPC >= got.Stats.TotalEPC {
		t.Fatalf("launched enclave consumed no EPC: %d free of %d", got.Stats.FreeEPC, got.Stats.TotalEPC)
	}
	if got.Stats.InflightIn != 0 || got.Stats.InflightOut != 0 {
		t.Fatalf("idle host reports in-flight migrations: %+v", got.Stats)
	}
}
