// Package epcman implements EPC page-frame management — the role the
// paper's in-guest SGX driver plays (Sec. VI-B "Virtual EPC Management"):
// allocating frames for enclave construction, and when the pool is
// exhausted, evicting resident pages to normal (untrusted) memory with EWB,
// then faulting them back in with ELDU on demand.
//
// Victim choice, in full. The resident pages sit on a clock list in arrival
// order, each with one second-chance bit that is set when the page arrives
// and cleared when the hand passes it. The driver gets no hit information —
// an access to a resident page never reaches it — so the bit is never set
// again and the clock is first-in-first-out with one lap of grace: the
// paper's "simplified LRU" without the recency. The one signal the driver
// does get is the fault stream, and it uses it: when an enclave's demand
// faults climb through its address range (each a step of at most sweepRun
// pages past the last, for more than sweepRun faults running), the enclave
// is sweeping, and the victim is the page the sweep has just left — the
// run's previous fault, at the tail of the list — instead of the clock's
// choice. A sweep over N pages in F frames then pages in the N − F that
// were out instead of all N, and leaves the rest of the resident set where
// it was. Every other fault, every AllocFrame and every pinned page goes
// through the clock unchanged. This is untrusted-driver policy only: what
// EWB seals, what ELDU accepts and which version slot guards it are the
// hardware's business and do not depend on which page is chosen.
//
// The runs are worked out here rather than announced by the runtime (a
// "sweep coming" hint before a dump or restore) because the enclave's own
// fills and scans sweep just the same and nothing outside this package
// knows about those; a hint would also be one more thing the untrusted
// runtime could get wrong.
//
// A Manager owns a set of EPC frames of one machine. Several managers can
// share a machine (one per VM); a Dispatcher routes hardware page-in
// requests to the manager owning the faulting enclave.
package epcman

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/sgx"
	"repro/internal/telemetry"
)

// ErrNoFrames means the manager has no frame to hand out and nothing it can
// evict.
var ErrNoFrames = errors.New("epcman: EPC exhausted and nothing evictable")

type pageKey struct {
	eid sgx.EnclaveID
	lin sgx.PageNum
}

type storedPage struct {
	ev     *sgx.EvictedPage
	va     *vaPage
	vaSlot int
}

type residentPage struct {
	key   pageKey
	frame sgx.FrameIndex
	// referenced is the clock algorithm's second-chance bit.
	referenced bool
	// pinned copies Manager.pinned[key] so the sweep does not look it up.
	pinned bool
	// gone marks an entry that left the clock list (evicted or dropped);
	// the sweep steps over it and dropResidentLocked's compaction removes
	// it.
	gone bool
}

// vaPage is the manager's view of one Version Array page it allocated.
type vaPage struct {
	frame sgx.FrameIndex
	used  [sgx.VASlotsPerPage]bool
	// inUse counts the set entries of used. live counts those whose blob
	// can still be reloaded; the others hold versions of blobs that
	// ForgetEnclave discarded and stay occupied in hardware until the page
	// is recycled.
	inUse, live int
	// next is a lower bound on the lowest free slot: every slot below it
	// is used.
	next int
}

// Manager manages a pool of EPC frames.
type Manager struct {
	mu sync.Mutex

	m      *sgx.Machine
	frames []sgx.FrameIndex // all frames this manager owns; guarded by mu
	free   []sgx.FrameIndex // guarded by mu

	// resident is the clock list of evictable pages (REG pages only), in
	// arrival order, with the entries that left it kept as tombstones so
	// removing a victim moves nothing. live counts the others; clock is
	// the hand's position in resident.
	resident []residentPage // guarded by mu
	live     int            // guarded by mu
	clock    int            // guarded by mu

	// evicted holds EWB blobs in "normal memory".
	evicted map[pageKey]storedPage // guarded by mu

	// vaPages are VA pages allocated out of the pool for version slots.
	vaPages []*vaPage // guarded by mu

	// pinned pages are never chosen as eviction victims (SSA and control
	// pages on the hot path can still be evicted architecturally, but the
	// driver avoids it just as the paper's driver avoids thrashing). The
	// map outlives residency; resident entries carry a copy of their bit.
	pinned map[pageKey]bool // guarded by mu

	// source, if set, is asked for additional frames (a hypervisor grant
	// hypercall) before the manager resorts to evicting; it models the
	// paper's on-demand guest-EPC mapping (Sec. VI-A).
	source FrameSource // guarded by mu

	// runs is the sweep detector's state: per enclave, where its last demand
	// fault fell and how long the run of short forward steps is.
	runs map[sgx.EnclaveID]faultRun // guarded by mu

	evictions int // guarded by mu
	reloads   int // guarded by mu

	// Telemetry instruments, cached once in SetMetrics so mutating paths
	// never take the registry lock while holding mu. All nil (and their
	// methods no-ops) until SetMetrics is called with a live registry.
	framesUsed *telemetry.Gauge     // guarded by mu
	framesFree *telemetry.Gauge     // guarded by mu
	evictCtr   *telemetry.Counter   // guarded by mu
	reloadCtr  *telemetry.Counter   // guarded by mu
	evictHist  *telemetry.Histogram // guarded by mu
	reloadHist *telemetry.Histogram // guarded by mu

	// journal, if set, receives burst-coalesced EPC-pressure events: at
	// most one per pressureWindow, carrying the evictions accumulated in
	// burstEvictions since the previous event. Coalescing keeps a
	// thrashing pool from flooding the (bounded) journal with one record
	// per EWB while still making pressure episodes visible fleet-wide.
	journal        *telemetry.Journal // guarded by mu
	lastPressure   time.Time          // guarded by mu
	burstEvictions int                // guarded by mu
}

// pressureWindow is the minimum spacing of EventEPCPressure records.
const pressureWindow = 100 * time.Millisecond

// faultRun is one enclave's recent demand-fault history: the page of its
// latest fault and how many faults in a row, that one included, each fell a
// short step past the previous one.
type faultRun struct {
	last sgx.PageNum
	n    int
}

// sweepRun is the sweep detector's policy constant. A fault continues its
// enclave's run when it falls 1 to sweepRun pages past the previous fault —
// a sweep takes no fault on a page that is resident, and earlier sweeps
// leave short resident islands behind, the last page of every run among
// them — and a run longer than sweepRun faults is a sweep. The first
// sweepRun faults of every run still go through the clock.
const sweepRun = 4

// sweepScan bounds how far from the tail of the clock list the page behind
// a sweep is looked for. It arrived with the enclave's previous fault, so
// only the arrivals (and drop-behind tombstones) of other enclaves faulting
// in between can sit after it.
const sweepScan = 16

// FrameSource supplies extra EPC frames on demand; it returns an error when
// the grant is exhausted (forcing guest-level eviction).
type FrameSource func() (sgx.FrameIndex, error)

// New creates a manager owning the given frames of machine m.
func New(m *sgx.Machine, frames []sgx.FrameIndex) *Manager {
	owned := make([]sgx.FrameIndex, len(frames))
	copy(owned, frames)
	freeList := make([]sgx.FrameIndex, len(frames))
	copy(freeList, frames)
	return &Manager{
		m:       m,
		frames:  owned,
		free:    freeList,
		evicted: make(map[pageKey]storedPage),
		pinned:  make(map[pageKey]bool),
		runs:    make(map[sgx.EnclaveID]faultRun),
	}
}

// NewRange is a convenience building a manager over frames [lo, hi).
func NewRange(m *sgx.Machine, lo, hi int) *Manager {
	frames := make([]sgx.FrameIndex, 0, hi-lo)
	for i := lo; i < hi; i++ {
		frames = append(frames, sgx.FrameIndex(i))
	}
	return New(m, frames)
}

// Machine returns the underlying machine.
func (g *Manager) Machine() *sgx.Machine { return g.m }

// Stats returns eviction/reload counters.
func (g *Manager) Stats() (evictions, reloads int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.evictions, g.reloads
}

// FreeFrames reports how many frames are immediately free.
func (g *Manager) FreeFrames() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.free)
}

// StrayFrames reports how many of the manager's frames are neither on its
// free list nor in use on the machine: frames AllocFrame handed out that no
// page took and ReturnFrame did not take back. A frame the machine does not
// have (a grant past its EPC) is never in use. It is 0 whenever no build,
// page-in or swap is under way.
func (g *Manager) StrayFrames() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	free := make(map[sgx.FrameIndex]bool, len(g.free))
	for _, f := range g.free {
		free[f] = true
	}
	n := 0
	for _, f := range g.frames {
		inUse := int(f) < g.m.NumFrames() && !g.m.FrameFree(f)
		if !free[f] && !inUse {
			n++
		}
	}
	return n
}

// AllocFrame returns a free frame, evicting a resident page if necessary.
func (g *Manager) AllocFrame() (sgx.FrameIndex, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, err := g.allocLocked(-1)
	g.publishFramesLocked()
	return f, err
}

// SetFrameSource installs a hypervisor-backed frame supplier.
func (g *Manager) SetFrameSource(src FrameSource) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.source = src
}

// SetMetrics publishes the manager's frame accounting to a telemetry
// registry: gauges epcman.frames.used / epcman.frames.free track pool
// occupancy, counters epcman.evictions / epcman.reloads mirror Stats(),
// and log-bucketed histograms epcman.evict.ns / epcman.reload.ns time the
// EWB and ELDU paths (the /metrics snapshot derives p50/p90/p99 from
// them). A nil registry leaves the manager dark (the instruments stay
// nil, and the hot paths skip their clock reads).
func (g *Manager) SetMetrics(m *telemetry.Metrics) {
	// Registry lookups happen before taking mu so mu never nests inside
	// the registry lock (or vice versa).
	used := m.Gauge("epcman.frames.used")
	free := m.Gauge("epcman.frames.free")
	evict := m.Counter("epcman.evictions")
	reload := m.Counter("epcman.reloads")
	var evictHist, reloadHist *telemetry.Histogram
	if m != nil {
		bounds := telemetry.LogBounds(1000, 100_000_000) // 1µs .. 100ms
		evictHist = m.Histogram("epcman.evict.ns", bounds)
		reloadHist = m.Histogram("epcman.reload.ns", bounds)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.framesUsed = used
	g.framesFree = free
	g.evictCtr = evict
	g.reloadCtr = reload
	g.evictHist = evictHist
	g.reloadHist = reloadHist
	g.publishFramesLocked()
}

// SetJournal installs the event journal pressure bursts are reported to
// (nil leaves the manager silent). Like SetMetrics, it touches no other
// lock while holding mu.
func (g *Manager) SetJournal(j *telemetry.Journal) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.journal = j
}

// publishFramesLocked refreshes the occupancy gauges; no-op when dark.
func (g *Manager) publishFramesLocked() {
	g.framesFree.Set(int64(len(g.free)))
	g.framesUsed.Set(int64(len(g.frames) - len(g.free)))
}

// allocLocked returns a free frame, evicting if it has to. behind, when not
// negative, is the clock-list index of the page a sequential sweep has just
// left (sweepBehindLocked): it is the first victim, ahead of the clock's
// choice.
func (g *Manager) allocLocked(behind int) (sgx.FrameIndex, error) {
	g.ensureVALocked()
	// An eviction usually frees the victim's frame, but the one that takes
	// the last version slot donates it to a new VA page (evictAtLocked), so
	// keep evicting until a frame turns up or nothing is evictable.
	for {
		if f, ok := g.popFreeLocked(); ok {
			return f, nil
		}
		if g.source != nil {
			if f, err := g.source(); err == nil {
				g.frames = append(g.frames, f)
				return f, nil
			}
		}
		var err error
		if behind >= 0 {
			err = g.evictAtLocked(behind)
			behind = -1
		} else {
			err = g.evictOneLocked()
		}
		if err != nil {
			return -1, err
		}
	}
}

func (g *Manager) popFreeLocked() (sgx.FrameIndex, bool) {
	for len(g.free) > 0 {
		f := g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
		// The frame may have been freed behind our back (EREMOVE during
		// enclave destruction re-adds explicitly), so double check.
		if g.m.FrameFree(f) {
			return f, true
		}
	}
	return -1, false
}

// NotePage registers a REG page as resident and evictable.
func (g *Manager) NotePage(eid sgx.EnclaveID, lin sgx.PageNum, f sgx.FrameIndex) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addResidentLocked(pageKey{eid, lin}, f)
}

// addResidentLocked appends a page at the tail of the clock list.
func (g *Manager) addResidentLocked(key pageKey, f sgx.FrameIndex) {
	g.resident = append(g.resident, residentPage{key: key, frame: f, referenced: true, pinned: g.pinned[key]})
	g.live++
}

// Pin marks a page as non-evictable (e.g. SSA frames, the SDK control page).
func (g *Manager) Pin(eid sgx.EnclaveID, lin sgx.PageNum) {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := pageKey{eid, lin}
	g.pinned[key] = true
	// Builders pin a page right after noting it, so it sits at the tail.
	for i := len(g.resident) - 1; i >= 0; i-- {
		if rp := &g.resident[i]; rp.key == key && !rp.gone {
			rp.pinned = true
			return
		}
	}
}

// evictOneLocked picks a victim with a clock sweep and EWBs it out. Two
// revolutions suffice: the first clears every second-chance bit it passes,
// so the second stops at the first unpinned page.
func (g *Manager) evictOneLocked() error {
	for steps := 2 * g.live; steps > 0; {
		if g.clock >= len(g.resident) {
			g.clock = 0
		}
		cand := &g.resident[g.clock]
		if cand.gone {
			g.clock++
			continue
		}
		steps--
		if cand.pinned {
			g.clock++
			continue
		}
		if cand.referenced {
			cand.referenced = false
			g.clock++
			continue
		}
		// The hand stays put: what follows the victim is next in line, and
		// a page appended while the hand rests past the tail is too.
		return g.evictAtLocked(g.clock)
	}
	return ErrNoFrames
}

func (g *Manager) evictAtLocked(idx int) error {
	victim := g.resident[idx]
	va, vaSlot, err := g.vaSlotLocked()
	if err != nil {
		return err
	}
	var ewbStart time.Time
	if g.evictHist != nil {
		ewbStart = time.Now()
	}
	ev, err := g.m.EWB(victim.frame, va.frame, vaSlot)
	if g.evictHist != nil {
		g.evictHist.Observe(time.Since(ewbStart).Nanoseconds())
	}
	if err != nil {
		// The page may be gone already (enclave destroyed); drop the entry.
		g.releaseVASlotLocked(va, vaSlot)
		g.dropResidentLocked(idx)
		return fmt.Errorf("epcman: EWB: %w", err)
	}
	g.evicted[victim.key] = storedPage{ev: ev, va: va, vaSlot: vaSlot}
	g.dropResidentLocked(idx)
	if !g.donateVALocked(victim.frame) {
		g.free = append(g.free, victim.frame)
	}
	g.evictions++
	g.evictCtr.Inc()
	g.burstEvictions++
	if g.journal != nil && time.Since(g.lastPressure) >= pressureWindow {
		g.journal.Append(telemetry.EventEPCPressure, "", telemetry.Context{},
			telemetry.Int("evictions", g.burstEvictions), telemetry.Int("free", len(g.free)))
		g.lastPressure = time.Now()
		g.burstEvictions = 0
	}
	return nil
}

// dropResidentLocked takes entry idx off the clock list by turning it into
// a tombstone, and compacts the list once tombstones outnumber live
// entries (so the sweep skips at most one of them per live entry, and a
// removal costs amortised O(1) instead of shifting the tail).
func (g *Manager) dropResidentLocked(idx int) {
	g.resident[idx] = residentPage{gone: true}
	g.live--
	if len(g.resident) <= 2*g.live {
		return
	}
	kept := g.resident[:0]
	clock := -1
	for i, rp := range g.resident {
		if i == g.clock {
			clock = len(kept)
		}
		if !rp.gone {
			kept = append(kept, rp)
		}
	}
	if clock < 0 { // the hand rested past the tail
		clock = len(kept)
	}
	g.resident, g.clock = kept, clock
}

// ensureVALocked sets up the first VA page while a frame is still free:
// eviction needs a version slot, and a completely full pool with no VA page
// would leave the manager unable to evict anything.
func (g *Manager) ensureVALocked() {
	if len(g.vaPages) > 0 || len(g.free) <= 1 {
		return
	}
	f, ok := g.popFreeLocked()
	if !ok {
		return
	}
	if !g.addVALocked(f) {
		g.free = append(g.free, f)
	}
}

// addVALocked turns free frame f into a VA page.
func (g *Manager) addVALocked(f sgx.FrameIndex) bool {
	if err := g.m.EPA(f); err != nil {
		return false
	}
	g.vaPages = append(g.vaPages, &vaPage{frame: f})
	return true
}

// donateVALocked is ensureVALocked for every VA page after the first. The
// eviction that took the last free version slot calls it with the frame it
// just vacated, which becomes the next VA page instead of going back to the
// pool: that is the one moment a full pool is certain to have a frame to
// spare, and the next eviction would otherwise find neither slot nor frame.
func (g *Manager) donateVALocked(f sgx.FrameIndex) bool {
	for _, va := range g.vaPages {
		if va.inUse < sgx.VASlotsPerPage {
			return false
		}
	}
	return g.addVALocked(f)
}

// vaSlotLocked claims the lowest free version slot of the first VA page
// that has one, allocating a VA page if none does and a frame is free.
func (g *Manager) vaSlotLocked() (*vaPage, int, error) {
	for _, va := range g.vaPages {
		if va.inUse < sgx.VASlotsPerPage {
			return va, va.claim(), nil
		}
	}
	f, ok := g.popFreeLocked()
	if !ok {
		// Deadlock avoidance: we need a frame for a VA page to evict
		// anything. Reserve-on-demand failed; give up.
		return nil, -1, ErrNoFrames
	}
	if !g.addVALocked(f) {
		g.free = append(g.free, f)
		return nil, -1, ErrNoFrames
	}
	va := g.vaPages[len(g.vaPages)-1]
	return va, va.claim(), nil
}

// claim takes the lowest free slot of a page that has one.
func (va *vaPage) claim() int {
	for va.used[va.next] {
		va.next++
	}
	slot := va.next
	va.used[slot] = true
	va.inUse++
	va.live++
	va.next++
	return slot
}

// releaseVASlotLocked frees a slot the hardware has emptied (ELDU consumed
// the version, or EWB never wrote it).
func (g *Manager) releaseVASlotLocked(va *vaPage, slot int) {
	va.used[slot] = false
	va.inUse--
	va.next = min(va.next, slot)
	g.retireVASlotLocked(va)
}

// retireVASlotLocked records that one fewer blob can be reloaded through
// va. Slots of blobs discarded without an ELDU still hold their version in
// hardware, where only removing the whole VA page clears them; once no
// reloadable blob is left on a page that has such slots, the page is
// recycled in place (EREMOVE forfeits exactly the versions nobody will ask
// for again, EPA starts it over empty).
func (g *Manager) retireVASlotLocked(va *vaPage) {
	va.live--
	if va.live > 0 || va.inUse == 0 {
		return
	}
	if err := g.m.EREMOVE(va.frame); err != nil {
		return // still a VA page with those slots occupied, as recorded
	}
	if err := g.m.EPA(va.frame); err != nil {
		g.vaPages = slices.DeleteFunc(g.vaPages, func(p *vaPage) bool { return p == va })
		g.free = append(g.free, va.frame)
		return
	}
	*va = vaPage{frame: va.frame}
}

// FaultIn loads an evicted page back into EPC. It implements
// sgx.FaultHandler for the enclaves this manager owns.
func (g *Manager) FaultIn(eid sgx.EnclaveID, lin sgx.PageNum) error {
	return g.faultIn(pageKey{eid, lin}, true)
}

// faultIn is FaultIn; demand says the enclave itself touched the page, which
// is what the sweep detector watches. EnsureResident's prefetch is not.
func (g *Manager) faultIn(key pageKey, demand bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	sp, ok := g.evicted[key]
	if !ok {
		return fmt.Errorf("epcman: page %d/%d not in swap", key.eid, key.lin)
	}
	behind := -1
	if demand {
		behind = g.sweepBehindLocked(key)
	}
	f, err := g.allocLocked(behind)
	if err != nil {
		return err
	}
	var elduStart time.Time
	if g.reloadHist != nil {
		elduStart = time.Now()
	}
	err = g.m.ELDU(f, sp.ev, sp.va.frame, sp.vaSlot)
	if g.reloadHist != nil {
		g.reloadHist.Observe(time.Since(elduStart).Nanoseconds())
	}
	if err != nil {
		g.free = append(g.free, f)
		return fmt.Errorf("epcman: ELDU: %w", err)
	}
	g.releaseVASlotLocked(sp.va, sp.vaSlot)
	delete(g.evicted, key)
	g.addResidentLocked(key, f)
	g.reloads++
	g.reloadCtr.Inc()
	g.publishFramesLocked()
	return nil
}

// sweepBehindLocked records a demand fault on key in its enclave's run and,
// once the run is a sweep, returns the clock-list index of the page the
// sweep has just left — the run's previous fault — or -1: the run is still
// short, or that page is pinned, gone, or buried under other enclaves'
// arrivals.
//
// A front-to-back pass over more pages than the pool has frames (a
// checkpoint dump, a restore, a table fill or scan) misses on every page
// under the arrival-order clock, because each page it brings in pushes out
// the one it will need soonest. Dropping the page behind the sweep instead
// makes the pass cycle through one frame: it pages in only what was out, and
// what was resident stays resident for the next pass.
func (g *Manager) sweepBehindLocked(key pageKey) int {
	run := g.runs[key.eid]
	behind := pageKey{key.eid, run.last}
	if run.n > 0 && key.lin > run.last && key.lin <= run.last+sweepRun {
		run.n++
	} else {
		run.n = 1
	}
	run.last = key.lin
	g.runs[key.eid] = run
	if run.n <= sweepRun {
		return -1
	}
	for i := len(g.resident) - 1; i >= max(0, len(g.resident)-sweepScan); i-- {
		if rp := &g.resident[i]; rp.key == behind && !rp.gone {
			if rp.pinned {
				return -1
			}
			return i
		}
	}
	return -1
}

// ForgetEnclave drops all bookkeeping for an enclave after it is destroyed
// and returns its frames to the pool.
func (g *Manager) ForgetEnclave(eid sgx.EnclaveID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	kept := g.resident[:0]
	for _, rp := range g.resident {
		switch {
		case rp.gone:
		case rp.key.eid == eid:
			g.free = append(g.free, rp.frame)
		default:
			kept = append(kept, rp)
		}
	}
	g.resident, g.live, g.clock = kept, len(kept), 0
	for k, sp := range g.evicted {
		if k.eid == eid {
			// The blob is discarded unloaded, so its version stays in the
			// hardware slot: the slot remains used until its page recycles.
			g.retireVASlotLocked(sp.va)
			delete(g.evicted, k)
		}
	}
	for k := range g.pinned {
		if k.eid == eid {
			delete(g.pinned, k)
		}
	}
	delete(g.runs, eid)
	g.publishFramesLocked()
}

// ReturnFrame puts an explicitly freed frame (e.g. after EREMOVE of a TCS)
// back on the free list.
func (g *Manager) ReturnFrame(f sgx.FrameIndex) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.free = append(g.free, f)
	g.publishFramesLocked()
}

// EnsureResident pages in every evicted page of an enclave (used before
// EMIGRATE, which requires full residency). If the pool is too small to
// hold the whole enclave — every fault-in evicts another of its pages — it
// reports ErrNoFrames instead of livelocking.
func (g *Manager) EnsureResident(eid sgx.EnclaveID) error {
	prev := -1
	for {
		g.mu.Lock()
		var lin sgx.PageNum
		remaining := 0
		found := false
		for k := range g.evicted {
			if k.eid == eid {
				if !found {
					lin = k.lin
					found = true
				}
				remaining++
			}
		}
		g.mu.Unlock()
		if !found {
			return nil
		}
		if prev >= 0 && remaining >= prev {
			return fmt.Errorf("%w: enclave %d does not fit residency (%d pages evicted)", ErrNoFrames, eid, remaining)
		}
		prev = remaining
		if err := g.faultIn(pageKey{eid, lin}, false); err != nil {
			return err
		}
	}
}

// Dispatcher routes machine-level page faults to the manager owning the
// enclave. Install it once per machine with Machine.SetFaultHandler.
type Dispatcher struct {
	mu     sync.RWMutex
	owners map[sgx.EnclaveID]*Manager // guarded by mu
}

// NewDispatcher creates an empty dispatcher and installs it on the machine.
func NewDispatcher(m *sgx.Machine) *Dispatcher {
	d := &Dispatcher{owners: make(map[sgx.EnclaveID]*Manager)}
	m.SetFaultHandler(d.FaultIn)
	return d
}

// Register makes mgr the owner of the enclave's pages.
func (d *Dispatcher) Register(eid sgx.EnclaveID, mgr *Manager) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.owners[eid] = mgr
}

// Unregister removes an enclave.
func (d *Dispatcher) Unregister(eid sgx.EnclaveID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.owners, eid)
}

// FaultIn implements sgx.FaultHandler.
func (d *Dispatcher) FaultIn(eid sgx.EnclaveID, lin sgx.PageNum) error {
	d.mu.RLock()
	mgr, ok := d.owners[eid]
	d.mu.RUnlock()
	if !ok {
		return fmt.Errorf("epcman: no manager owns enclave %d", eid)
	}
	return mgr.FaultIn(eid, lin)
}
