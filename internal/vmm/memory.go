// Package vmm provides the virtualization substrate of the reproduction:
// guest physical memory with dirty-page tracking, a hypervisor that manages
// physical EPC and grants it to guests on demand (paper Sec. VI-A), a guest
// OS with the SGX driver and enclave-hosting processes (Sec. VI-B), and the
// pre-copy live VM migration engine that the paper extends with enclave
// migration (Sec. VI-D, Fig. 8).
package vmm

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sgx"
)

// PageSize is the guest page size (matches the EPC page size and the bulk
// wire codec's framing granularity).
const PageSize = core.PageSize

// GuestMemory is a VM's guest-physical memory with per-page dirty tracking,
// the substrate of iterative pre-copy migration.
type GuestMemory struct {
	mu    sync.RWMutex
	data  []byte // guarded by mu
	pages int
	dirty []bool // guarded by mu
	// owned marks the pages of windows the local guest has handed to an
	// incoming enclave while a migration stream is still landing in this
	// memory. What the guest and the enclave write there wins: ApplyPages
	// and ApplyPageDeltas drop migrated content for these pages.
	owned []bool // guarded by mu
}

// NewGuestMemory allocates guest memory of the given page count.
func NewGuestMemory(pages int) *GuestMemory {
	return &GuestMemory{
		data:  make([]byte, pages*PageSize),
		pages: pages,
		dirty: make([]bool, pages),
		owned: make([]bool, pages),
	}
}

// Pages returns the page count.
func (g *GuestMemory) Pages() int { return g.pages }

// Bytes returns the memory size in bytes.
func (g *GuestMemory) Bytes() int64 { return int64(g.pages) * PageSize }

// Write stores guest memory and marks the touched pages dirty.
func (g *GuestMemory) Write(addr uint64, b []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if addr+uint64(len(b)) > uint64(len(g.data)) {
		return fmt.Errorf("vmm: guest write out of range")
	}
	copy(g.data[addr:], b)
	markRange(g.dirty, addr, uint64(len(b)))
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
	if addr+uint64(len(b)) > uint64(len(g.data)) {
		return fmt.Errorf("vmm: guest read out of range")
	}
	copy(b, g.data[addr:])
	return nil
}

// CopyPage reads page p into dst (len >= PageSize).
func (g *GuestMemory) CopyPage(p int, dst []byte) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	copy(dst, g.data[p*PageSize:(p+1)*PageSize])
}

// ApplyPage installs migrated page content without marking it dirty (used on
// the migration target).
func (g *GuestMemory) ApplyPage(p int, src []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	copy(g.data[p*PageSize:(p+1)*PageSize], src)
}

// CopyPages reads the given pages into dst (len(pages)*PageSize bytes) under
// a single lock acquisition — the batch read side of chunked migration
// transfers.
func (g *GuestMemory) CopyPages(pages []int, dst []byte) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for i, p := range pages {
		copy(dst[i*PageSize:(i+1)*PageSize], g.data[p*PageSize:(p+1)*PageSize])
	}
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
	if base+size > uint64(len(g.data)) {
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
// their local content.
func (g *GuestMemory) ApplyPages(pages []int, src []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, p := range pages {
		if g.owned[p] {
			continue
		}
		copy(g.data[p*PageSize:(p+1)*PageSize], src[i*PageSize:(i+1)*PageSize])
	}
}

// ApplyPageDeltas installs a batch of migrated XOR+RLE page deltas (the
// FrameDelta layout: sizes[i] bytes of delta per page, concatenated in
// page order) under one lock, XORing each onto the page's current content
// without marking it dirty. Correct only when this memory holds exactly
// the content the sender's delta baseline assumed — FIFO application of
// the migration stream guarantees that. A claimed window's pages are skipped
// (their delta bytes still consumed): they no longer hold the baseline, and
// every later frame for them is dropped the same way.
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
		if err := core.ApplyXORDelta(g.data[p*PageSize:(p+1)*PageSize], src[off:off+sz]); err != nil {
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

// MarkAllDirty flags every page (migration round 0).
func (g *GuestMemory) MarkAllDirty() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for p := range g.dirty {
		g.dirty[p] = true
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
	g.mu.RLock()
	defer g.mu.RUnlock()
	if base+size > uint64(len(g.data)) {
		return nil, fmt.Errorf("vmm: region out of range")
	}
	return &Region{mem: g, base: base, size: size}, nil
}

// Load implements sgx.OutsideMemory.
func (r *Region) Load(off uint64, b []byte) error {
	if off+uint64(len(b)) > r.size {
		return fmt.Errorf("vmm: region read out of range")
	}
	return r.mem.Read(r.base+off, b)
}

// Store implements sgx.OutsideMemory.
func (r *Region) Store(off uint64, b []byte) error {
	if off+uint64(len(b)) > r.size {
		return fmt.Errorf("vmm: region write out of range")
	}
	return r.mem.Write(r.base+off, b)
}

// Size implements sgx.OutsideMemory.
func (r *Region) Size() uint64 { return r.size }
