package epcman

import (
	"errors"
	"testing"

	"repro/internal/sgx"
)

// touch is what an enclave access to a page does to the driver: nothing
// when the page is resident, a demand fault when it is in swap. It reports
// whether it faulted.
func touch(t testing.TB, mgr *Manager, eid sgx.EnclaveID, lin int) bool {
	t.Helper()
	mgr.mu.Lock()
	_, out := mgr.evicted[pageKey{eid, sgx.PageNum(lin)}]
	mgr.mu.Unlock()
	if out {
		if err := mgr.FaultIn(eid, sgx.PageNum(lin)); err != nil {
			t.Fatalf("fault on page %d/%d: %v", eid, lin, err)
		}
	}
	return out
}

// sweep touches pages 0..pages-1 of an enclave front to back and returns
// how many of them faulted.
func sweep(t testing.TB, mgr *Manager, eid sgx.EnclaveID, pages int) int {
	t.Helper()
	faults := 0
	for lin := 0; lin < pages; lin++ {
		if touch(t, mgr, eid, lin) {
			faults++
		}
	}
	return faults
}

// swapCount is how many pages the manager holds in swap.
func swapCount(mgr *Manager) int {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return len(mgr.evicted)
}

// TestSweepPagesInOnlyWhatWasOut pins the drop-behind policy by exact
// counts. An enclave of N = 1.25 × F pages is swept front to back, again
// and again, on a pool that holds F of them. Under the arrival-order clock
// alone every one of the N touches faults, on every pass: each page brought
// in pushes out the page the sweep needs soonest. With drop-behind a pass
// costs the N − F pages that were out plus the sweepRun faults the clock
// still serves before the run counts as a sweep — and stays there, pass
// after pass, because what was resident is left alone.
func TestSweepPagesInOnlyWhatWasOut(t *testing.T) {
	const frames, pages = 402, 500 // SECS + one VA page + F = 400
	mgr, eid := fillPool(t, frames, pages)
	out := swapCount(mgr)
	if out != pages-(frames-2) {
		t.Fatalf("%d pages in swap after the build, want N - F = %d", out, pages-(frames-2))
	}
	for pass := 1; pass <= 12; pass++ {
		_, rl0 := mgr.Stats()
		faults := sweep(t, mgr, eid, pages)
		_, rl1 := mgr.Stats()
		if faults != rl1-rl0 {
			t.Fatalf("pass %d: %d faults but %d reloads", pass, faults, rl1-rl0)
		}
		if faults > out+sweepRun {
			t.Fatalf("pass %d: %d reloads, want at most (N - F) + sweepRun = %d (the clock alone costs %d)", pass, faults, out+sweepRun, pages)
		}
		if now := swapCount(mgr); now != out {
			t.Fatalf("pass %d: %d pages in swap, %d before", pass, now, out)
		}
	}

	// The detector is mid-sweep and the enclave does not fit the pool: the
	// prefetch must still notice that it is getting nowhere.
	if err := mgr.EnsureResident(eid); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("EnsureResident on an enclave larger than the pool: %v, want ErrNoFrames", err)
	}
}

// TestInterleavedSweepsKeepTheirRuns: two enclaves on one manager sweep at
// the same time, their faults alternating. Each has its own run, so each is
// detected and each drops its own previous page — found one step from the
// tail of the clock list, behind the other's arrival. One shared history
// would see the page numbers jump between the two and never find a run.
func TestInterleavedSweepsKeepTheirRuns(t *testing.T) {
	const frames, pages = 403, 250 // two SECS + one VA page + 400 for 2 × 250
	m := newMachine(t, frames)
	mgr := NewRange(m, 0, frames)
	d := NewDispatcher(m)
	var eids [2]sgx.EnclaveID
	for i := range eids {
		secs, err := mgr.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if eids[i], err = m.ECREATE(secs, progStub{}, pages, 2); err != nil {
			t.Fatal(err)
		}
		d.Register(eids[i], mgr)
	}
	// Built page by page in turn, so the clock's arrival order — and with
	// it what the build pushed out — alternates between the two.
	for lin := 0; lin < pages; lin++ {
		for _, eid := range eids {
			f, err := mgr.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.EADD(f, eid, sgx.PageNum(lin), sgx.PermR|sgx.PermW, nil); err != nil {
				t.Fatal(err)
			}
			mgr.NotePage(eid, sgx.PageNum(lin), f)
		}
	}
	out := swapCount(mgr)
	if out < 8*sweepRun {
		t.Fatalf("only %d pages in swap: no pressure", out)
	}
	for pass := 1; pass <= 6; pass++ {
		var faults [2]int
		for lin := 0; lin < pages; lin++ {
			for i, eid := range eids {
				if touch(t, mgr, eid, lin) {
					faults[i]++
				}
			}
		}
		if faults[0] == 0 || faults[1] == 0 {
			t.Fatalf("pass %d: faults %v, want both enclaves paging", pass, faults)
		}
		if total := faults[0] + faults[1]; total > out+2*sweepRun {
			t.Fatalf("pass %d: %v reloads, want at most %d in swap + sweepRun for each run (the clock alone costs %d)", pass, faults, out, 2*pages)
		}
	}
}

// TestSweepNeverDropsPinnedPage: a page pinned while it sat in swap comes
// back pinned, in the middle of a sweep's run; the next fault of the run
// must leave it alone (the clock serves that one fault) and so must every
// later pass.
func TestSweepNeverDropsPinnedPage(t *testing.T) {
	const frames, pages = 202, 300
	mgr, eid := fillPool(t, frames, pages)
	pinned := []int{10, 11, 40, 77}
	for _, lin := range pinned {
		mgr.mu.Lock()
		_, out := mgr.evicted[pageKey{eid, sgx.PageNum(lin)}]
		mgr.mu.Unlock()
		if !out {
			t.Fatalf("page %d is resident after the build; the test wants it pinned in swap", lin)
		}
		mgr.Pin(eid, sgx.PageNum(lin))
	}
	for pass := 1; pass <= 4; pass++ {
		sweep(t, mgr, eid, pages)
		mgr.mu.Lock()
		for _, lin := range pinned {
			if _, out := mgr.evicted[pageKey{eid, sgx.PageNum(lin)}]; out {
				t.Errorf("pass %d: pinned page %d was evicted", pass, lin)
			}
		}
		mgr.mu.Unlock()
	}
}

// BenchmarkSweepOverPool measures one front-to-back pass over the
// bigstate_epc shape (2 100 pages under 1 700 frames) per op, and reports
// the time per page touched, resident or not, and the evictions a pass
// costs.
func BenchmarkSweepOverPool(b *testing.B) {
	const frames, pages = 1700, 2100
	mgr, eid := fillPool(b, frames, pages)
	sweep(b, mgr, eid, pages) // past the build's arrival order
	ev0, _ := mgr.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(b, mgr, eid, pages)
	}
	b.StopTimer()
	ev1, _ := mgr.Stats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
	b.ReportMetric(float64(ev1-ev0)/float64(b.N), "evictions/pass")
}
