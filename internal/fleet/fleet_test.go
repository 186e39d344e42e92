package fleet_test

import (
	"io"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/hostproto"
	"repro/internal/telemetry"
	"repro/internal/testhost"
)

func startFleet(t testing.TB, n int, opt testhost.Options) ([]*testhost.Host, *fleet.Fleet, *telemetry.Metrics) {
	t.Helper()
	hosts, err := testhost.StartN(n, opt)
	if err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	testhost.Check(t, hosts...)
	t.Cleanup(func() { testhost.CloseAll(hosts) })
	met := telemetry.NewMetrics()
	f, err := fleet.New(fleet.Config{
		Hosts:          testhost.Addrs(hosts),
		RequestTimeout: 30 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		Seed:           7,
		Metrics:        met,
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return hosts, f, met
}

func launchOn(t testing.TB, addr string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, err := fleet.Request(addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}, 10*time.Second)
		if err != nil {
			t.Fatalf("launch on %s: %v", addr, err)
		}
		ids = append(ids, resp.ID)
	}
	return ids
}

func TestNewValidates(t *testing.T) {
	if _, err := fleet.New(fleet.Config{}); err == nil {
		t.Fatalf("New with no hosts succeeded")
	}
	if _, err := fleet.New(fleet.Config{Hosts: []string{"a:1", "a:1"}}); err == nil {
		t.Fatalf("New with duplicate hosts succeeded")
	}
	if _, err := fleet.New(fleet.Config{Hosts: []string{""}}); err == nil {
		t.Fatalf("New with empty host succeeded")
	}
}

func TestPollSnapshot(t *testing.T) {
	hosts, f, met := startFleet(t, 2, testhost.Options{})
	if err := f.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	snap := f.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d hosts, want 2", len(snap))
	}
	names := map[string]bool{}
	for _, st := range snap {
		if !st.Healthy {
			t.Fatalf("host %s unhealthy after successful poll: %s", st.Addr, st.Err)
		}
		if st.Stats.TotalEPC == 0 || st.Stats.FreeEPC != st.Stats.TotalEPC {
			t.Fatalf("fresh host %s EPC accounting: %+v", st.Addr, st.Stats)
		}
		names[st.Stats.Name] = true
	}
	if !names["h0"] || !names["h1"] {
		t.Fatalf("snapshot names %v, want h0 and h1", names)
	}
	if met.Gauge("fleet.hosts.healthy").Value() != 2 {
		t.Fatalf("healthy gauge %d, want 2", met.Gauge("fleet.hosts.healthy").Value())
	}

	// A dead host fails the poll, is marked unhealthy, and is excluded
	// from planning — but the live host still refreshes.
	hosts[1].Close()
	if err := f.Poll(); err == nil {
		t.Fatalf("poll with dead host succeeded")
	}
	var dead, live int
	for _, st := range f.Snapshot() {
		if st.Healthy {
			live++
		} else {
			dead++
			if st.Err == "" {
				t.Fatalf("unhealthy host %s has no error", st.Addr)
			}
		}
	}
	if live != 1 || dead != 1 {
		t.Fatalf("after killing one host: %d live, %d dead", live, dead)
	}
	if met.Gauge("fleet.hosts.healthy").Value() != 1 {
		t.Fatalf("healthy gauge %d, want 1", met.Gauge("fleet.hosts.healthy").Value())
	}
}

func TestPlaceSpreads(t *testing.T) {
	hosts, f, _ := startFleet(t, 3, testhost.Options{})
	placed, err := fleet.Place(f, "counter", 6)
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if len(placed) != 6 {
		t.Fatalf("placed %d instances, want 6", len(placed))
	}
	perHost := map[string]int{}
	for _, p := range placed {
		if p.ID == "" {
			t.Fatalf("placement with empty ID: %+v", placed)
		}
		perHost[p.Addr]++
	}
	for _, h := range hosts {
		if perHost[h.Addr] != 2 {
			t.Fatalf("placement did not spread: %v", perHost)
		}
	}
	if _, err := fleet.Place(f, "no-such-image", 1); err == nil {
		t.Fatalf("placing unknown image succeeded")
	}
}

func TestRebalanceConverges(t *testing.T) {
	hosts, f, _ := startFleet(t, 3, testhost.Options{})
	ids := launchOn(t, hosts[0].Addr, 6)

	rep, err := fleet.Rebalance(f)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Moved != 4 || rep.Failed != 0 || rep.Lost != 0 {
		t.Fatalf("rebalance results: %s", rep.Summary())
	}
	if err := f.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	seen := map[string]string{}
	for _, st := range f.Snapshot() {
		if got := len(st.Stats.Live); got != 2 {
			t.Fatalf("host %s has %d live enclaves after rebalance, want 2", st.Addr, got)
		}
		for _, id := range st.Stats.Live {
			orig := id
			if i := strings.Index(id, "@"); i >= 0 {
				orig = id[:i]
			}
			if prev, dup := seen[orig]; dup {
				t.Fatalf("enclave %s present on %s and %s", orig, prev, st.Addr)
			}
			seen[orig] = st.Addr
		}
	}
	for _, id := range ids {
		if seen[id] == "" {
			t.Fatalf("enclave %s disappeared during rebalance; placements %v", id, seen)
		}
	}

	// A balanced fleet re-plans to nothing.
	again, err := fleet.Rebalance(f)
	if err != nil {
		t.Fatalf("second rebalance: %v", err)
	}
	if len(again.Results) != 0 {
		t.Fatalf("rebalance of balanced fleet moved %d enclaves", len(again.Results))
	}
}

// BenchmarkPoll is one control-loop round over three loopback daemons with
// eight sessions each: an OpStats and an OpEvents request per host, in
// parallel — the benchmark spine's fleet.poll_us.
func BenchmarkPoll(b *testing.B) {
	log.SetOutput(io.Discard) // the daemons log every launch
	b.Cleanup(func() { log.SetOutput(os.Stderr) })
	hosts, f, _ := startFleet(b, 3, testhost.Options{})
	for _, h := range hosts {
		launchOn(b, h.Addr, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Poll(); err != nil {
			b.Fatal(err)
		}
	}
}
