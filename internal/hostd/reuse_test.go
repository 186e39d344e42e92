package hostd_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hostproto"
	"repro/internal/testhost"
)

// peerCounters reads a daemon's outbound connection counters.
func peerCounters(h *testhost.Host) (dials, reused int64) {
	c := h.S.Metrics().CounterValues()
	return c["host.peer.dials"], c["host.peer.reused"]
}

// migrateCounter launches a counter enclave on src and migrates it to dst.
func migrateCounter(t *testing.T, src, dst *testhost.Host) error {
	t.Helper()
	id := request(t, src.Addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}).ID
	_, err := fleet.Request(src.Addr, hostproto.Command{Op: hostproto.OpMigrateOut, ID: id, Target: dst.Addr}, 30*time.Second)
	return err
}

// TestPeerConnectionSurvivesTargetRestart: two migrations to one target
// share one connection; after the target restarts, the pooled connection
// is found closed before anything is written to it, and the next migration
// dials afresh and succeeds on its first attempt.
func TestPeerConnectionSurvivesTargetRestart(t *testing.T) {
	src := startHost(t, "alpha", 11, 0)
	dst := startHost(t, "beta", 12, 0)
	for i := 0; i < 2; i++ {
		if err := migrateCounter(t, src, dst); err != nil {
			t.Fatalf("migration %d: %v", i+1, err)
		}
	}
	if dials, reused := peerCounters(src); dials != 1 || reused != 1 {
		t.Fatalf("two migrations to one target: %d dials, %d reuses; want 1 and 1", dials, reused)
	}
	if err := dst.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := migrateCounter(t, src, dst); err != nil {
		t.Fatalf("migration after the target restarted: %v", err)
	}
	if dials, reused := peerCounters(src); dials != 2 || reused != 1 {
		t.Fatalf("after the restart: %d dials, %d reuses; want 2 and 1", dials, reused)
	}
	if failed := src.S.Metrics().CounterValues()["host.migrations.failed"]; failed != 0 {
		t.Fatalf("%d failed migrations on the source, want 0", failed)
	}
}

// TestFaultedHopNeverReturnsItsConnection fails one migration at each
// transport operation in turn, with the connection left open underneath.
// A hop that fails never puts its connection back: the clean hop after it
// dials, and the faulted hop after that reuses the clean one's.
func TestFaultedHopNeverReturnsItsConnection(t *testing.T) {
	var faults sync.Map // enclave id → failAt
	var mu sync.Mutex
	var counted *core.FaultyTransport
	hook := func(id string, ts core.Transport) core.Transport {
		if k, ok := faults.Load(id); ok {
			return core.NewFaultyTransport(ts, k.(int), false)
		}
		ft := core.NewFaultyTransport(ts, 1<<30, false)
		mu.Lock()
		counted = ft
		mu.Unlock()
		return ft
	}
	src, err := testhost.Start("alpha", 21, testhost.Options{MigrationHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	testhost.Check(t, src)
	t.Cleanup(src.Close)
	dst := startHost(t, "beta", 22, 0)

	// A clean hop first, counting the operations of a whole migration.
	if err := migrateCounter(t, src, dst); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	ops := counted.Ops()
	mu.Unlock()
	if ops < 4 {
		t.Fatalf("a clean migration made %d transport operations", ops)
	}
	for k := 1; k <= ops; k++ {
		id := request(t, src.Addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}).ID
		faults.Store(id, k)
		dials0, reused0 := peerCounters(src)
		if _, err := fleet.Request(src.Addr, hostproto.Command{Op: hostproto.OpMigrateOut, ID: id, Target: dst.Addr}, 30*time.Second); err == nil {
			t.Fatalf("op %d: a migration with an injected fault succeeded", k)
		}
		if dials, reused := peerCounters(src); dials != dials0 || reused != reused0+1 {
			t.Fatalf("op %d: the faulted hop made %d dials, %d reuses; want it on the clean hop's connection", k, dials-dials0, reused-reused0)
		}
		if err := migrateCounter(t, src, dst); err != nil {
			t.Fatalf("op %d: the clean hop after the fault: %v", k, err)
		}
		if dials, _ := peerCounters(src); dials != dials0+1 {
			t.Fatalf("op %d: the clean hop after the fault reused a connection (%d dials)", k, dials-dials0)
		}
	}
}

// TestMigratedSessionListedOnFirstAsk: once OpMigrateOut has returned
// success, the target lists the new session on the very first OpStats —
// it registers the session before it sends the trailer the source reads
// before answering.
func TestMigratedSessionListedOnFirstAsk(t *testing.T) {
	hosts := [2]*testhost.Host{startHost(t, "alpha", 31, 0), startHost(t, "beta", 32, 0)}
	id := request(t, hosts[0].Addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}).ID
	for hop := 0; hop < 6; hop++ {
		src, dst := hosts[hop%2], hosts[(hop+1)%2]
		request(t, src.Addr, hostproto.Command{Op: hostproto.OpMigrateOut, ID: id, Target: dst.Addr})
		st := request(t, dst.Addr, hostproto.Command{Op: hostproto.OpStats}).Stats
		moved := ""
		for _, live := range st.Live {
			if strings.HasPrefix(live, id+"@") {
				moved = live
			}
		}
		if moved == "" {
			t.Fatalf("hop %d: %s is not listed on the target on the first ask (live %v, inflight in %d)", hop, id, st.Live, st.InflightIn)
		}
		id = moved
	}
}
