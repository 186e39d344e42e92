// Package vmm provides the virtualization substrate of the reproduction:
// demand-zero guest physical memory with dirty-page tracking (extents nobody
// wrote hold no memory and are never migrated), a hypervisor that manages
// physical EPC and grants it to guests on demand (paper Sec. VI-A), a guest
// OS with the SGX driver and enclave-hosting processes (Sec. VI-B), and the
// pre-copy live VM migration engine that the paper extends with enclave
// migration (Sec. VI-D, Fig. 8).
package vmm

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sgx"
)

// PageSize is the guest page size (matches the EPC page size and the bulk
// wire codec's framing granularity).
const PageSize = core.PageSize

// extentBytes is the granularity at which guest memory is backed: one
// transfer chunk (chunkPages, see its comment for the size), so a chunk of
// the bulk round reads from one extent and lands in one.
const extentBytes = chunkPages * PageSize

// GuestMemory is a VM's guest-physical memory with per-page dirty tracking,
// the substrate of iterative pre-copy migration. Like the anonymous mapping
// behind a real guest it is demand-zero: an extent nobody has written holds
// no memory and reads as zero.
type GuestMemory struct {
	mu sync.RWMutex
	// data is the extent table: extent e covers bytes [e*extentBytes,
	// (e+1)*extentBytes) of the guest (the last one may be shorter). nil =
	// never written = reads as zero; the first store that touches an extent
	// backs it, and it stays backed.
	data  [][]byte // guarded by mu
	pages int
	dirty []bool // guarded by mu
	// owned marks the pages of windows the local guest has handed to an
	// incoming enclave while a migration stream is still landing in this
	// memory. What the guest and the enclave write there wins: ApplyPages
	// and ApplyPageDeltas drop migrated content for these pages.
	owned []bool // guarded by mu

	// Delta baselines of the migration this memory is the source of, from
	// its first Capture to DropBaselines. A page is armed while the peer
	// holds exactly its current bytes — shipped, not written since — so the
	// memory itself is its baseline. The first store to an armed page saves
	// the bytes it is about to overwrite in base, a pooled page buffer, and
	// disarms the page. tracking is the one look a store pays outside a
	// migration.
	tracking bool           // guarded by mu
	armed    []bool         // guarded by mu; allocated by the first Capture
	base     map[int][]byte // guarded by mu
}

// NewGuestMemory returns guest memory of the given page count, all of it
// unbacked: only the extent table and the two page bitmaps are allocated.
func NewGuestMemory(pages int) *GuestMemory {
	return &GuestMemory{
		data:  make([][]byte, (pages+chunkPages-1)/chunkPages),
		pages: pages,
		dirty: make([]bool, pages),
		owned: make([]bool, pages),
	}
}

// Pages returns the page count.
func (g *GuestMemory) Pages() int { return g.pages }

// Bytes returns the memory size in bytes.
func (g *GuestMemory) Bytes() int64 { return int64(g.pages) * PageSize }

// inRange reports whether [addr, addr+n) lies inside a window of the given
// size. addr comes from whatever a host put in a register: addr+n may wrap,
// size-n cannot.
func inRange(addr, n, size uint64) bool {
	return n <= size && addr <= size-n
}

// backLocked returns extent e, backing it first if nobody has written it.
func (g *GuestMemory) backLocked(e int) []byte {
	if g.data[e] == nil {
		g.data[e] = make([]byte, min(extentBytes, int(g.Bytes())-e*extentBytes))
	}
	return g.data[e]
}

// pageLocked returns page p's bytes for a store, backing its extent.
func (g *GuestMemory) pageLocked(p int) []byte {
	off := p % chunkPages * PageSize
	return g.backLocked(p / chunkPages)[off : off+PageSize]
}

// loadPageLocked copies page p into dst; an unbacked page reads as zero.
func (g *GuestMemory) loadPageLocked(p int, dst []byte) {
	ext := g.data[p/chunkPages]
	if ext == nil {
		clear(dst[:PageSize])
		return
	}
	copy(dst[:PageSize], ext[p%chunkPages*PageSize:])
}

// Write stores guest memory and marks the touched pages dirty, backing the
// extents it touches under the same lock: a page is never dirty in an
// unbacked extent. While a migration tracks baselines (Capture), the first
// store to a page shipped since saves the bytes the peer holds.
func (g *GuestMemory) Write(addr uint64, b []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !inRange(addr, uint64(len(b)), uint64(g.Bytes())) {
		return fmt.Errorf("vmm: guest write out of range")
	}
	markRange(g.dirty, addr, uint64(len(b)))
	if g.tracking && len(b) > 0 {
		for p := int(addr / PageSize); p <= int((addr+uint64(len(b))-1)/PageSize); p++ {
			g.keepBaselineLocked(p)
		}
	}
	for len(b) > 0 {
		n := copy(g.backLocked(int(addr / extentBytes))[addr%extentBytes:], b)
		b, addr = b[n:], addr+uint64(n)
	}
	return nil
}

// markRange sets the bit of every page [addr, addr+n) touches.
func markRange(bits []bool, addr, n uint64) {
	if n == 0 {
		return
	}
	for p := addr / PageSize; p <= (addr+n-1)/PageSize; p++ {
		bits[p] = true
	}
}

// Read loads guest memory.
func (g *GuestMemory) Read(addr uint64, b []byte) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if !inRange(addr, uint64(len(b)), uint64(g.Bytes())) {
		return fmt.Errorf("vmm: guest read out of range")
	}
	for len(b) > 0 {
		off := addr % extentBytes
		n := min(len(b), extentBytes-int(off))
		if ext := g.data[addr/extentBytes]; ext != nil {
			copy(b[:n], ext[off:])
		} else {
			clear(b[:n])
		}
		b, addr = b[n:], addr+uint64(n)
	}
	return nil
}

// CopyPage reads page p into dst (len >= PageSize).
func (g *GuestMemory) CopyPage(p int, dst []byte) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.loadPageLocked(p, dst)
}

// ApplyPage installs migrated page content without marking it dirty (used on
// the migration target).
func (g *GuestMemory) ApplyPage(p int, src []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.keepBaselineLocked(p)
	copy(g.pageLocked(p), src)
}

// CopyPages reads the given pages into dst (len(pages)*PageSize bytes) under
// a single lock acquisition — the batch read side of chunked migration
// transfers.
func (g *GuestMemory) CopyPages(pages []int, dst []byte) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for i, p := range pages {
		g.loadPageLocked(p, dst[i*PageSize:])
	}
}

// Capture is CopyPages for a migration source: it copies the given pages
// into dst under one lock acquisition and sets base[i] to page i's delta
// baseline, the bytes the peer holds for it:
//   - the bytes the guest's first store since the page was last shipped
//     overwrote — a pooled buffer, appended to held: the caller returns it
//     with core.PutBuf once the chunk is encoded;
//   - the captured bytes themselves, when nothing has written the page
//     since it was shipped (an empty delta);
//   - nil when the page has never been shipped: the peer's fresh memory
//     still holds zeros there.
//
// Every captured page is armed, since the capture is what the peer will
// hold; the memory tracks its baselines until DropBaselines.
func (g *GuestMemory) Capture(pages []int, dst []byte, base, held [][]byte) [][]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.armed == nil {
		g.armed = make([]bool, g.pages)
		g.base = make(map[int][]byte)
	}
	g.tracking = true
	for i, p := range pages {
		cur := dst[i*PageSize : (i+1)*PageSize]
		g.loadPageLocked(p, cur)
		if b, ok := g.base[p]; ok {
			delete(g.base, p)
			base[i] = b
			held = append(held, b)
		} else if g.armed[p] {
			base[i] = cur
		} else {
			base[i] = nil
		}
		g.armed[p] = true
	}
	return held
}

// keepBaselineLocked saves armed page p's bytes as its baseline before a
// store overwrites them, and disarms it.
func (g *GuestMemory) keepBaselineLocked(p int) {
	if !g.tracking || !g.armed[p] {
		return
	}
	b := core.GetBuf(PageSize)
	g.loadPageLocked(p, b)
	g.base[p] = b
	g.armed[p] = false
}

// DropBaselines ends the tracking Capture started: every page is disarmed
// and every saved baseline goes back to the pool, so stores are untracked
// again and the next migration starts from a peer that holds nothing.
func (g *GuestMemory) DropBaselines() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for p, b := range g.base {
		core.PutBuf(b)
		delete(g.base, p)
	}
	clear(g.armed)
	g.tracking = false
}

// ClaimWindow hands [base, base+size) to the local guest for the rest of the
// incoming migration: from here on migrated content for its pages is
// dropped, so a source page that happens to live at the same offsets cannot
// land between a local write and the read that follows it. The target guest
// claims an incoming enclave's shared region before building the enclave;
// ReleaseWindows ends every claim when the VM resumes.
func (g *GuestMemory) ClaimWindow(base, size uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !inRange(base, size, uint64(g.Bytes())) {
		return fmt.Errorf("vmm: claimed window out of range")
	}
	markRange(g.owned, base, size)
	return nil
}

// ReleaseWindows drops every claim: the stream has drained, nothing migrated
// can land here anymore.
func (g *GuestMemory) ReleaseWindows() {
	g.mu.Lock()
	defer g.mu.Unlock()
	clear(g.owned)
}

// ApplyPages installs a batch of migrated pages (the chunk layout CopyPages
// produces) without marking them dirty. Pages of a claimed window keep
// their local content. An unbacked extent whose pages the batch carries
// whole (wholeExtentLocked) is backed with one copy of them; every other
// page is copied into its extent, backing it zeroed first if need be.
func (g *GuestMemory) ApplyPages(pages []int, src []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < len(pages); {
		if n := g.wholeExtentLocked(pages[i:]); n > 0 {
			g.data[pages[i]/chunkPages] = bytes.Clone(src[i*PageSize : (i+n)*PageSize])
			i += n
			continue
		}
		if p := pages[i]; !g.owned[p] {
			g.keepBaselineLocked(p)
			copy(g.pageLocked(p), src[i*PageSize:(i+1)*PageSize])
		}
		i++
	}
}

// wholeExtentLocked returns the page count of the extent pages[0] opens when
// that extent is unbacked and pages starts with all of its pages in order,
// none of them claimed or armed: the batch then writes every byte of it, so
// it need not be zeroed first. It returns 0 otherwise.
func (g *GuestMemory) wholeExtentLocked(pages []int) int {
	p := pages[0]
	if p%chunkPages != 0 || g.data[p/chunkPages] != nil {
		return 0
	}
	n := min(chunkPages, g.pages-p)
	if len(pages) < n {
		return 0
	}
	for j, q := range pages[:n] {
		if q != p+j || g.owned[q] || g.tracking && g.armed[q] {
			return 0
		}
	}
	return n
}

// ApplyPageDeltas installs a batch of migrated XOR+RLE page deltas (the
// FrameDelta layout: sizes[i] bytes of delta per page, concatenated in
// page order) under one lock, XORing each onto the page's current content
// without marking it dirty. Correct only when this memory holds exactly
// the content the sender's delta baseline assumed — FIFO application of
// the migration stream guarantees that, and a page the stream has not
// carried yet is zero here, as its nil baseline on the sender says. A claimed
// window's pages are skipped (their delta bytes still consumed): they no
// longer hold the baseline, and every later frame for them is dropped the
// same way.
func (g *GuestMemory) ApplyPageDeltas(pages, sizes []int, src []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	off := 0
	for i, p := range pages {
		if p < 0 || p >= g.pages {
			return fmt.Errorf("vmm: delta for page %d outside guest memory", p)
		}
		sz := sizes[i]
		if g.owned[p] {
			off += sz
			continue
		}
		g.keepBaselineLocked(p)
		if err := core.ApplyXORDelta(g.pageLocked(p), src[off:off+sz]); err != nil {
			return fmt.Errorf("vmm: apply delta to page %d: %w", p, err)
		}
		off += sz
	}
	return nil
}

// CollectDirty returns the currently dirty pages and clears their bits.
func (g *GuestMemory) CollectDirty() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []int
	for p, d := range g.dirty {
		if d {
			out = append(out, p)
			g.dirty[p] = false
		}
	}
	return out
}

// DirtyCount reports how many pages are dirty without clearing them.
func (g *GuestMemory) DirtyCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, d := range g.dirty {
		if d {
			n++
		}
	}
	return n
}

// MarkResidentDirty flags every page of every backed extent: migration
// round 0. The rest of the guest has never been written and is not sent.
func (g *GuestMemory) MarkResidentDirty() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for e, ext := range g.data {
		markRange(g.dirty, uint64(e)*extentBytes, uint64(len(ext)))
	}
}

// Region carves an sgx.OutsideMemory window out of guest memory; enclaves'
// untrusted shared regions live here, so checkpoint dumps dirty VM pages and
// ride the ordinary migration stream.
type Region struct {
	mem  *GuestMemory
	base uint64
	size uint64
}

var _ sgx.OutsideMemory = (*Region)(nil)

// Region returns a window [base, base+size).
func (g *GuestMemory) Region(base, size uint64) (*Region, error) {
	if !inRange(base, size, uint64(g.Bytes())) {
		return nil, fmt.Errorf("vmm: region out of range")
	}
	return &Region{mem: g, base: base, size: size}, nil
}

// Load implements sgx.OutsideMemory.
func (r *Region) Load(off uint64, b []byte) error {
	if !inRange(off, uint64(len(b)), r.size) {
		return fmt.Errorf("vmm: region read out of range")
	}
	return r.mem.Read(r.base+off, b)
}

// Store implements sgx.OutsideMemory.
func (r *Region) Store(off uint64, b []byte) error {
	if !inRange(off, uint64(len(b)), r.size) {
		return fmt.Errorf("vmm: region write out of range")
	}
	return r.mem.Write(r.base+off, b)
}

// Size implements sgx.OutsideMemory.
func (r *Region) Size() uint64 { return r.size }
