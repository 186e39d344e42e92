package epcman

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sgx"
)

// refClock is the clock list as the manager kept it before the tombstone
// rewrite — a plain slice whose victim is cut out of the middle — retained
// here as the reference the property test holds the manager to. It models
// victim choice only; the test tells it when an eviction happens.
type refClock struct {
	resident []refPage
	clock    int
	pinned   map[pageKey]bool
}

type refPage struct {
	key        pageKey
	referenced bool
}

func (r *refClock) note(key pageKey) {
	r.resident = append(r.resident, refPage{key: key, referenced: true})
}

func (r *refClock) evictOne() (pageKey, bool) {
	if len(r.resident) == 0 {
		return pageKey{}, false
	}
	for sweep := 0; sweep < 2*len(r.resident); sweep++ {
		r.clock %= len(r.resident)
		cand := &r.resident[r.clock]
		if r.pinned[cand.key] {
			r.clock++
			continue
		}
		if cand.referenced {
			cand.referenced = false
			r.clock++
			continue
		}
		return r.evictAt(r.clock), true
	}
	for i := range r.resident {
		if !r.pinned[r.resident[i].key] {
			return r.evictAt(i), true
		}
	}
	return pageKey{}, false
}

func (r *refClock) evictAt(idx int) pageKey {
	key := r.resident[idx].key
	r.resident = append(r.resident[:idx], r.resident[idx+1:]...)
	return key
}

func (r *refClock) forget(eid sgx.EnclaveID) {
	kept := r.resident[:0]
	for _, rp := range r.resident {
		if rp.key.eid != eid {
			kept = append(kept, rp)
		}
	}
	r.resident = kept
	for k := range r.pinned {
		if k.eid == eid {
			delete(r.pinned, k)
		}
	}
	r.clock = 0
}

// clockHarness drives one real manager and the reference model with the
// same operations and compares, after each, which pages the manager
// evicted (in EWB order) with the model's choices.
type clockHarness struct {
	t   *testing.T
	m   *sgx.Machine
	mgr *Manager
	ref *refClock

	evictions int
	inSwap    map[pageKey]bool
}

// check reconciles the model with what the manager just did. opErr is the
// real operation's error; it may only be ErrNoFrames, and then the model
// must have had nothing to evict either.
func (h *clockHarness) check(op string, opErr error) {
	h.t.Helper()
	h.mgr.mu.Lock()
	var fresh []*sgx.EvictedPage
	for k, sp := range h.mgr.evicted {
		if !h.inSwap[k] {
			fresh = append(fresh, sp.ev)
		}
	}
	h.mgr.mu.Unlock()
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Version < fresh[j].Version })
	ev, _ := h.mgr.Stats()
	if ev-h.evictions != len(fresh) {
		h.t.Fatalf("%s: %d evictions counted, %d new pages in swap", op, ev-h.evictions, len(fresh))
	}
	h.evictions = ev
	for _, page := range fresh {
		got := pageKey{page.Enclave, page.Lin}
		want, ok := h.ref.evictOne()
		if !ok || got != want {
			h.t.Fatalf("%s: manager evicted %v, the slice model picks %v (ok=%v)", op, got, want, ok)
		}
		h.inSwap[got] = true
	}
	if opErr != nil {
		if !errors.Is(opErr, ErrNoFrames) {
			h.t.Fatalf("%s: %v", op, opErr)
		}
		if victim, ok := h.ref.evictOne(); ok {
			h.t.Fatalf("%s: manager found nothing to evict, the slice model picks %v", op, victim)
		}
	}
}

// sameState compares the whole clock, not just its output: the victim
// sequence alone is a weak witness (with every page entering referenced and
// nothing re-referencing it, the clock is close to FIFO wherever the hand
// stands), so the list order, the second-chance and pin bits and the hand's
// logical position are checked against the model after every operation.
func (h *clockHarness) sameState(op string) {
	h.t.Helper()
	h.mgr.mu.Lock()
	defer h.mgr.mu.Unlock()
	var live []residentPage
	hand := -1
	for i, rp := range h.mgr.resident {
		if i == h.mgr.clock {
			hand = len(live)
		}
		if !rp.gone {
			live = append(live, rp)
		}
	}
	if hand < 0 {
		hand = len(live)
	}
	if len(live) != h.mgr.live || len(live) != len(h.ref.resident) {
		h.t.Fatalf("%s: %d live entries (counter says %d), the slice model has %d", op, len(live), h.mgr.live, len(h.ref.resident))
	}
	for i, rp := range live {
		want := h.ref.resident[i]
		if rp.key != want.key || rp.referenced != want.referenced || rp.pinned != h.ref.pinned[rp.key] {
			h.t.Fatalf("%s: entry %d is %+v, the slice model has %+v pinned=%v", op, i, rp, want, h.ref.pinned[want.key])
		}
	}
	// The model wraps its hand lazily (at the next eviction), and so does
	// the manager; both may rest one past the tail.
	if hand != h.ref.clock {
		h.t.Fatalf("%s: hand before live entry %d of %d, the slice model's is at %d", op, hand, len(live), h.ref.clock)
	}
	if dead := len(h.mgr.resident) - len(live); dead > len(live) {
		h.t.Fatalf("%s: %d tombstones outnumber %d live entries", op, dead, len(live))
	}
}

// TestClockMatchesSliceModel is the equivalence proof for the O(1) victim
// removal: over seeded random interleavings of NotePage, Pin, AllocFrame,
// FaultIn and ForgetEnclave — including pools so small that the swap
// outgrows one VA page — the manager evicts exactly the pages, in exactly
// the order, that the old delete-from-the-middle implementation would.
func TestClockMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newMachine(t, 4096)
			frames := 24 + rng.Intn(64)
			h := &clockHarness{
				t: t, m: m, mgr: NewRange(m, 0, frames),
				ref:    &refClock{pinned: map[pageKey]bool{}},
				inSwap: map[pageKey]bool{},
			}
			type encl struct {
				eid   sgx.EnclaveID
				secs  sgx.FrameIndex
				pages int
			}
			const maxPages = 900 // per enclave; past one VA page's 512 slots
			var live []*encl
			newEnclave := func() {
				secs, err := h.mgr.AllocFrame()
				h.check("alloc SECS", err)
				if err != nil {
					return
				}
				eid, err := m.ECREATE(secs, progStub{}, maxPages, 2)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, &encl{eid: eid, secs: secs})
			}
			newEnclave()
			for step := 0; step < 4000; step++ {
				if len(live) == 0 {
					newEnclave()
					continue
				}
				e := live[rng.Intn(len(live))]
				switch r := rng.Intn(100); {
				case r < 55 && e.pages < maxPages: // grow the enclave by a page
					f, err := h.mgr.AllocFrame()
					h.check("alloc page", err)
					if err != nil {
						continue
					}
					lin := sgx.PageNum(e.pages)
					if err := m.EADD(f, e.eid, lin, sgx.PermR|sgx.PermW, nil); err != nil {
						t.Fatal(err)
					}
					e.pages++
					h.mgr.NotePage(e.eid, lin, f)
					h.ref.note(pageKey{e.eid, lin})
					if rng.Intn(40) == 0 {
						h.mgr.Pin(e.eid, lin)
						h.ref.pinned[pageKey{e.eid, lin}] = true
					}
				case r < 85: // touch a page; only swapped ones fault
					if e.pages == 0 {
						continue
					}
					key := pageKey{e.eid, sgx.PageNum(rng.Intn(e.pages))}
					if !h.inSwap[key] {
						continue
					}
					err := h.mgr.FaultIn(key.eid, key.lin)
					h.check("fault in", err)
					if err == nil {
						delete(h.inSwap, key)
						h.ref.note(key)
					}
				case r < 90: // pin something arbitrary, resident or not
					if e.pages == 0 {
						continue
					}
					key := pageKey{e.eid, sgx.PageNum(rng.Intn(e.pages))}
					if len(h.ref.pinned) < frames/4 {
						h.mgr.Pin(key.eid, key.lin)
						h.ref.pinned[key] = true
					}
				case r < 93: // destroy the enclave
					if err := m.DestroyEnclave(e.eid); err != nil {
						t.Fatal(err)
					}
					h.mgr.ForgetEnclave(e.eid)
					h.mgr.ReturnFrame(e.secs)
					h.ref.forget(e.eid)
					for k := range h.inSwap {
						if k.eid == e.eid {
							delete(h.inSwap, k)
						}
					}
					for i, x := range live {
						if x == e {
							live = append(live[:i], live[i+1:]...)
						}
					}
				case r < 95 && len(live) < 3:
					newEnclave()
				}
				h.sameState(fmt.Sprintf("step %d", step))
			}
			if h.evictions == 0 {
				t.Fatal("the run never evicted: nothing was compared")
			}
		})
	}
}

// fillPool builds an enclave of `pages` REG pages on a fresh manager of
// `frames` frames, registered for faults.
func fillPool(t testing.TB, frames, pages int) (*Manager, sgx.EnclaveID) {
	t.Helper()
	m := newMachine(t, frames)
	mgr := NewRange(m, 0, frames)
	eid := buildEnclave(t, m, mgr, pages)
	NewDispatcher(m).Register(eid, mgr)
	return mgr, eid
}

// TestBuildBeyondOneVAPage is the regression test for "a build that needs
// more than 512 evicted pages fails": with the pool full at every
// allocation, the second and third VA page can only come from a frame an
// eviction has just vacated.
func TestBuildBeyondOneVAPage(t *testing.T) {
	const frames, pages = 64, 64 + 2*sgx.VASlotsPerPage + 50
	mgr, eid := fillPool(t, frames, pages)
	mgr.mu.Lock()
	vaPages, inSwap := len(mgr.vaPages), len(mgr.evicted)
	mgr.mu.Unlock()
	if inSwap <= 2*sgx.VASlotsPerPage || vaPages < 3 {
		t.Fatalf("%d pages in swap over %d VA pages: the build never outgrew two VA pages", inSwap, vaPages)
	}
	// Every page is still reachable.
	for lin := 0; lin < pages; lin += 37 {
		err := mgr.FaultIn(eid, sgx.PageNum(lin))
		mgr.mu.Lock()
		_, swapped := mgr.evicted[pageKey{eid, sgx.PageNum(lin)}]
		mgr.mu.Unlock()
		if swapped {
			t.Fatalf("page %d still in swap after FaultIn: %v", lin, err)
		}
	}
}

// TestForgetEnclaveRecyclesVASlots is the regression test for ForgetEnclave
// leaking hardware VA slots: the versions of blobs discarded with their
// enclave stay in the VA page, so the manager must not hand those slots out
// again until it has recycled the page. Enclave after enclave is built
// under pressure and destroyed on one manager; before the fix the second
// build failed its first eviction with ErrVASlot.
func TestForgetEnclaveRecyclesVASlots(t *testing.T) {
	const frames, pages = 48, 200
	m := newMachine(t, frames)
	mgr := NewRange(m, 0, frames)
	d := NewDispatcher(m)
	for round := 0; round < 8; round++ {
		eid, secs := buildEnclaveSECS(t, m, mgr, pages)
		d.Register(eid, mgr)
		// Reload some pages so the swap holds a mix of slots: consumed by
		// ELDU and reused, and still occupied when the enclave goes.
		reloaded := 0
		for lin := 0; lin < pages; lin += 3 {
			if mgr.FaultIn(eid, sgx.PageNum(lin)) == nil {
				reloaded++
			}
		}
		if reloaded == 0 {
			t.Fatalf("round %d: no page was in swap", round)
		}
		if err := m.DestroyEnclave(eid); err != nil {
			t.Fatal(err)
		}
		d.Unregister(eid)
		mgr.ForgetEnclave(eid)
		mgr.ReturnFrame(secs)

		mgr.mu.Lock()
		vaPages := len(mgr.vaPages)
		for _, va := range mgr.vaPages {
			if va.inUse != 0 || va.live != 0 {
				t.Errorf("round %d: VA page in frame %d keeps %d used / %d live slots with no enclave left", round, va.frame, va.inUse, va.live)
			}
		}
		mgr.mu.Unlock()
		if vaPages != 1 {
			t.Fatalf("round %d: %d VA pages for a swap that never held %d blobs", round, vaPages, sgx.VASlotsPerPage)
		}
		if free := mgr.FreeFrames(); free != frames-vaPages {
			t.Fatalf("round %d: %d frames free, want all %d but the VA page", round, free, frames)
		}
	}
}

// BenchmarkFaultInFullPool measures FaultIn on a full pool of 1 700
// entries (the bigstate_epc size, where cutting the victim out of the
// slice moved ~40 KiB per eviction): each call is one ELDU plus the
// eviction that makes room for it.
func BenchmarkFaultInFullPool(b *testing.B) {
	const frames, pages = 1700, 2100
	mgr, eid := fillPool(b, frames, pages)
	swapped := func() []sgx.PageNum {
		mgr.mu.Lock()
		defer mgr.mu.Unlock()
		lins := make([]sgx.PageNum, 0, len(mgr.evicted))
		for k := range mgr.evicted {
			lins = append(lins, k.lin)
		}
		sort.Slice(lins, func(i, j int) bool { return lins[i] < lins[j] })
		return lins
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		b.StopTimer()
		lins := swapped()
		b.StartTimer()
		// Faulting one page in evicts another, possibly one further down
		// this list; those calls fail fast and are not counted.
		for _, lin := range lins {
			if i == b.N {
				break
			}
			if mgr.FaultIn(eid, lin) == nil {
				i++
			}
		}
	}
}
