package vmm

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
)

// residentPages counts the pages of g's backed extents: what a bulk round
// carries.
func residentPages(g *GuestMemory) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, ext := range g.data {
		n += len(ext) / PageSize
	}
	return n
}

// ones returns n bytes no read of guest memory should leave behind.
func ones(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }

func allZero(b []byte) bool { return len(bytes.TrimLeft(b, "\x00")) == 0 }

// TestGuestMemoryUnbackedReadsZero: every read path clears its destination
// over memory nobody wrote, and none of them backs an extent.
func TestGuestMemoryUnbackedReadsZero(t *testing.T) {
	g := NewGuestMemory(3 * chunkPages)
	// Back the middle extent only, so the reads below cross backed/unbacked
	// boundaries in both directions.
	if err := g.Write(extentBytes+PageSize, []byte("written")); err != nil {
		t.Fatal(err)
	}
	r, err := g.Region(0, uint64(g.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	whole := ones(int(g.Bytes()))
	if err := g.Read(0, whole); err != nil {
		t.Fatal(err)
	}
	viaRegion := ones(int(g.Bytes()))
	if err := r.Load(0, viaRegion); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, g.Bytes())
	copy(want[extentBytes+PageSize:], "written")
	if !bytes.Equal(whole, want) || !bytes.Equal(viaRegion, want) {
		t.Fatal("Read / Region.Load over unbacked extents did not return zeros around the one write")
	}

	page := ones(PageSize)
	g.CopyPage(2*chunkPages+5, page)
	if !allZero(page) {
		t.Fatal("CopyPage of an unbacked page left the destination as it was")
	}
	pages := []int{3, chunkPages + 1, 2*chunkPages + 7}
	batch := ones(len(pages) * PageSize)
	g.CopyPages(pages, batch)
	if !allZero(batch[:PageSize]) || !allZero(batch[2*PageSize:]) || !bytes.HasPrefix(batch[PageSize:], []byte("written")) {
		t.Fatal("CopyPages mixed up backed and unbacked pages")
	}
	if got := residentPages(g); got != chunkPages {
		t.Fatalf("reads backed memory: %d pages resident, want %d", got, chunkPages)
	}
	if d := g.CollectDirty(); len(d) != 1 || d[0] != chunkPages+1 {
		t.Fatalf("dirty set = %v, want the one written page", d)
	}
}

// TestGuestMemoryExtentStraddle: a Write and a Region.Store across an
// extent boundary land contiguously, back both extents and dirty exactly
// the pages they touch.
func TestGuestMemoryExtentStraddle(t *testing.T) {
	g := NewGuestMemory(4 * chunkPages)
	if err := g.Write(extentBytes-3, []byte("straddle")); err != nil {
		t.Fatal(err)
	}
	r, err := g.Region(2*extentBytes, 2*extentBytes)
	if err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("0123456789abcdef"), PageSize/8) // two pages' worth
	if err := r.Store(extentBytes-PageSize, long); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, 8)
	if err := g.Read(extentBytes-3, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "straddle" {
		t.Fatalf("straddling write read back %q", got)
	}
	back := make([]byte, len(long))
	if err := r.Load(extentBytes-PageSize, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, long) {
		t.Fatal("straddling Region.Store did not read back")
	}
	if got := residentPages(g); got != 4*chunkPages {
		t.Fatalf("%d pages resident, want all four extents", got)
	}
	want := []int{chunkPages - 1, chunkPages, 3*chunkPages - 1, 3 * chunkPages}
	if d := g.CollectDirty(); !slices.Equal(d, want) {
		t.Fatalf("dirty set = %v, want %v", d, want)
	}
}

// TestGuestMemoryShortLastExtent: a guest whose page count is not a multiple
// of the extent size ends in a short extent — reachable to its last byte and
// no further, and no larger than the guest.
func TestGuestMemoryShortLastExtent(t *testing.T) {
	for _, pages := range []int{2, chunkPages + 6} {
		g := NewGuestMemory(pages)
		last := uint64(pages*PageSize - 4)
		if err := g.Write(last, []byte("tail")); err != nil {
			t.Fatalf("%d pages: write to the last bytes: %v", pages, err)
		}
		if err := g.Write(last+1, []byte("tail")); err == nil {
			t.Fatalf("%d pages: write past the end accepted", pages)
		}
		got := make([]byte, 4)
		if err := g.Read(last, got); err != nil || string(got) != "tail" {
			t.Fatalf("%d pages: read back %q, %v", pages, got, err)
		}
		tail := pages % chunkPages
		if n := residentPages(g); n != tail {
			t.Fatalf("%d pages: last extent holds %d pages, want %d", pages, n, tail)
		}
		g.CollectDirty()
		g.MarkResidentDirty()
		if d := g.CollectDirty(); len(d) != tail || d[0] != pages-tail || d[tail-1] != pages-1 {
			t.Fatalf("%d pages: resident set = %v, want the last %d pages", pages, d, tail)
		}
		g.ApplyPage(pages-1, ones(PageSize))
		page := make([]byte, PageSize)
		g.CopyPage(pages-1, page)
		if !bytes.Equal(page, ones(PageSize)) {
			t.Fatalf("%d pages: ApplyPage on the last page did not land", pages)
		}
	}
}

// TestApplyPageDeltasUnbacked: a nil delta baseline means "the peer still
// holds zeros", so a delta against the nil baseline must land on
// an extent nobody has written yet — and landing does not dirty it.
func TestApplyPageDeltasUnbacked(t *testing.T) {
	g := NewGuestMemory(2 * chunkPages)
	next := make([]byte, PageSize)
	copy(next[100:], "first content of a page in a fresh extent")
	d := core.XORDeltaEncode(nil, nil, next)
	if d == nil {
		t.Fatal("sparse page did not delta-encode against the zero baseline")
	}
	p := chunkPages + 9
	if err := g.ApplyPageDeltas([]int{p}, []int{len(d)}, d); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	g.CopyPage(p, got)
	if !bytes.Equal(got, next) {
		t.Fatal("delta onto an unbacked extent misapplied")
	}
	if n := g.DirtyCount(); n != 0 {
		t.Fatalf("ApplyPageDeltas dirtied %d pages", n)
	}
	if n := residentPages(g); n != chunkPages {
		t.Fatalf("%d pages resident, want the one extent the delta landed in", n)
	}
}

// TestClaimWindowUnbacked: a claim needs no memory behind it to hold —
// migrated content for a claimed page of an unbacked extent is dropped, raw
// or delta, and its unclaimed neighbour in the same frame still lands.
func TestClaimWindowUnbacked(t *testing.T) {
	g := NewGuestMemory(2 * chunkPages)
	if err := g.ClaimWindow(5*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if n := residentPages(g); n != 0 {
		t.Fatalf("ClaimWindow backed %d pages", n)
	}
	g.ApplyPages([]int{5}, ones(PageSize))
	if n := residentPages(g); n != 0 {
		t.Fatalf("a dropped page backed %d pages", n)
	}
	next := make([]byte, PageSize)
	copy(next, "migrated")
	d := core.XORDeltaEncode(nil, nil, next)
	if err := g.ApplyPageDeltas([]int{5, 6}, []int{len(d), len(d)}, append(append([]byte(nil), d...), d...)); err != nil {
		t.Fatal(err)
	}
	got := ones(2 * PageSize)
	g.CopyPages([]int{5, 6}, got)
	if !allZero(got[:PageSize]) {
		t.Fatal("migrated content landed in a claimed page")
	}
	if !bytes.Equal(got[PageSize:], next) {
		t.Fatal("unclaimed neighbour of a claimed page did not land")
	}
}

// TestNewGuestMemoryAllocatesNoPages: creating a guest costs its extent
// table and two page bitmaps, not its size — the 32 MiB target of vm_live
// comes up in under 64 KiB.
func TestNewGuestMemoryAllocatesNoPages(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGuestMemory(8192)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewGuestMemory(8192) allocated %d bytes, want < 64 KiB", got)
	}
	if g.Pages() != 8192 || residentPages(g) != 0 {
		t.Fatalf("fresh guest: %d pages, %d resident", g.Pages(), residentPages(g))
	}
}

// TestWindowBoundsDoNotWrap: addr+n overflows uint64 for offsets near the
// top of the address space — values a host can put in a register — and the
// sum compares small. Every entry point must refuse them, and a refused
// store must not have written anywhere.
func TestWindowBoundsDoNotWrap(t *testing.T) {
	const top = ^uint64(0)
	g := NewGuestMemory(8)
	r, err := g.Region(2*PageSize, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		addr uint64
		n    int
	}{
		{top, 1},
		{top - 7, 16},
		{top - PageSize + 1, PageSize},
		{top - 8, 8}, // no wrap, just far out of range
	} {
		buf := make([]byte, c.n)
		if err := g.Write(c.addr, buf); err == nil {
			t.Errorf("Write(%#x, %d bytes) accepted", c.addr, c.n)
		}
		if err := g.Read(c.addr, buf); err == nil {
			t.Errorf("Read(%#x, %d bytes) accepted", c.addr, c.n)
		}
		if err := r.Store(c.addr, ones(c.n)); err == nil {
			t.Errorf("Region.Store(%#x, %d bytes) accepted", c.addr, c.n)
		}
		if err := r.Load(c.addr, buf); err == nil {
			t.Errorf("Region.Load(%#x, %d bytes) accepted", c.addr, c.n)
		}
	}
	for _, c := range []struct{ base, size uint64 }{
		{top, 1},
		{top - 7, 16},
		{PageSize, top},
		{top - PageSize + 1, 2 * PageSize},
		{8 * PageSize, 1},
	} {
		if err := g.ClaimWindow(c.base, c.size); err == nil {
			t.Errorf("ClaimWindow(%#x, %#x) accepted", c.base, c.size)
		}
		if _, err := g.Region(c.base, c.size); err == nil {
			t.Errorf("Region(%#x, %#x) accepted", c.base, c.size)
		}
	}
	// The edges themselves are in range.
	if err := g.Write(8*PageSize, nil); err != nil {
		t.Errorf("empty write at the end of memory: %v", err)
	}
	if err := r.Store(2*PageSize-1, []byte{1}); err != nil {
		t.Errorf("store of the region's last byte: %v", err)
	}
	// Nothing a refused call was handed has landed: only that last byte.
	whole := make([]byte, g.Bytes())
	if err := g.Read(0, whole); err != nil {
		t.Fatal(err)
	}
	whole[4*PageSize-1]--
	if !allZero(whole) {
		t.Fatal("a refused out-of-range store wrote guest memory")
	}
	if d := g.CollectDirty(); len(d) != 1 || d[0] != 3 {
		t.Fatalf("dirty set = %v, want only the region's last page", d)
	}
}

// TestApplyPagesWholeExtent: a raw batch applied whole — where ApplyPages
// backs an unbacked extent with one copy of the batch's pages — leaves the
// same bytes, dirty bits and delta baselines as the same batch applied one
// page at a time, which zero-backs the extent and copies each page in.
// wantWhole lists the extents each case expects to take the one-copy path.
func TestApplyPagesWholeExtent(t *testing.T) {
	const pages = 2*chunkPages + 37 // the third extent is short
	seq := func(from, to int) []int {
		var out []int
		for p := from; p < to; p++ {
			out = append(out, p)
		}
		return out
	}
	for _, c := range []struct {
		name      string
		setup     func(t *testing.T, g *GuestMemory)
		pages     []int
		wantWhole []int
		baselines int // delta baselines the apply must save
	}{
		{"every extent, short last", nil, seq(0, pages), []int{0, 1, 2}, 0},
		{"short last extent alone", nil, seq(2*chunkPages, pages), []int{2}, 0},
		{"extent cut short", nil, seq(0, chunkPages-1), nil, 0},
		{"mid-extent start", nil, seq(1, chunkPages+1), nil, 0},
		{"one extent and scattered pages", nil, append(seq(chunkPages, 2*chunkPages), 2*chunkPages+3, 2*chunkPages+9), []int{1}, 0},
		{"claimed page", func(t *testing.T, g *GuestMemory) {
			if err := g.ClaimWindow((chunkPages+10)*PageSize, PageSize); err != nil {
				t.Fatal(err)
			}
		}, seq(0, 2*chunkPages), []int{0}, 0},
		{"already backed", func(t *testing.T, g *GuestMemory) {
			if err := g.Write((chunkPages+3)*PageSize+17, []byte("local")); err != nil {
				t.Fatal(err)
			}
		}, seq(0, 2*chunkPages), []int{0}, 0},
		{"armed pages", func(t *testing.T, g *GuestMemory) {
			armed := []int{chunkPages + 1, chunkPages + 40}
			held := g.Capture(armed, make([]byte, len(armed)*PageSize), make([][]byte, len(armed)), nil)
			if len(held) != 0 {
				t.Fatalf("first capture held %d baselines", len(held))
			}
		}, seq(0, 2*chunkPages), []int{0}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := make([]byte, len(c.pages)*PageSize)
			rand.New(rand.NewSource(int64(len(c.pages)))).Read(src)
			whole, single := NewGuestMemory(pages), NewGuestMemory(pages)
			for _, g := range []*GuestMemory{whole, single} {
				if c.setup != nil {
					c.setup(t, g)
				}
				t.Cleanup(g.DropBaselines)
			}

			var took []int
			whole.mu.Lock()
			for i := 0; i < len(c.pages); i++ {
				if n := whole.wholeExtentLocked(c.pages[i:]); n > 0 {
					took = append(took, c.pages[i]/chunkPages)
					i += n - 1
				}
			}
			whole.mu.Unlock()
			if !slices.Equal(took, c.wantWhole) {
				t.Fatalf("one-copy extents = %v, want %v", took, c.wantWhole)
			}

			whole.ApplyPages(c.pages, src)
			for i, p := range c.pages {
				// A one-page batch covers a whole extent of none of
				// these guests: this is the per-page path.
				single.ApplyPages([]int{p}, src[i*PageSize:(i+1)*PageSize])
			}

			got, want := make([]byte, whole.Bytes()), make([]byte, single.Bytes())
			if err := whole.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if err := single.Read(0, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("whole-extent apply left different bytes than page-by-page")
			}
			if g, w := residentPages(whole), residentPages(single); g != w {
				t.Fatalf("%d pages resident, page-by-page %d", g, w)
			}
			if g, w := whole.CollectDirty(), single.CollectDirty(); !slices.Equal(g, w) {
				t.Fatalf("dirty set = %v, page-by-page %v", g, w)
			}
			whole.mu.Lock()
			single.mu.Lock()
			for p, b := range single.base {
				if !bytes.Equal(whole.base[p], b) {
					t.Errorf("page %d: baseline not saved as page-by-page saves it", p)
				}
			}
			if len(whole.base) != c.baselines || len(single.base) != c.baselines {
				t.Errorf("%d baselines saved, page-by-page %d, want %d", len(whole.base), len(single.base), c.baselines)
			}
			single.mu.Unlock()
			whole.mu.Unlock()
		})
	}
}

// benchFill is one chunk-aligned megabyte of incompressible bytes.
func benchFill() []byte {
	fill := make([]byte, 4*extentBytes)
	rand.New(rand.NewSource(19)).Read(fill)
	return fill
}

// BenchmarkGuestMemoryWrite stores a megabyte over backed extents: the
// extent walk's cost against the one flat copy it replaced.
func BenchmarkGuestMemoryWrite(b *testing.B) {
	fill := benchFill()
	g := NewGuestMemory(len(fill) / PageSize)
	if err := g.Write(0, fill); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(fill)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Write(0, fill); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuestMemoryCopyPages reads that megabyte back a chunk at a time,
// the way the page stream's collector does.
func BenchmarkGuestMemoryCopyPages(b *testing.B) {
	fill := benchFill()
	g := NewGuestMemory(len(fill) / PageSize)
	if err := g.Write(0, fill); err != nil {
		b.Fatal(err)
	}
	pages := make([]int, g.Pages())
	for i := range pages {
		pages[i] = i
	}
	buf := make([]byte, extentBytes)
	b.ReportAllocs()
	b.SetBytes(int64(len(fill)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(pages); off += chunkPages {
			g.CopyPages(pages[off:off+chunkPages], buf)
		}
	}
}

// BenchmarkApplyPages lands a megabyte of raw pages on a fresh target the
// way the page stream's applier does, a chunk at a time: whole extents,
// which back each extent with one copy, and chunks that each miss one page,
// which back it zeroed and copy page by page.
func BenchmarkApplyPages(b *testing.B) {
	fill := benchFill()
	pages := make([]int, len(fill)/PageSize)
	for i := range pages {
		pages[i] = i
	}
	run := func(b *testing.B, chunk func(off int) []int) {
		b.ReportAllocs()
		b.SetBytes(int64(len(fill)))
		for i := 0; i < b.N; i++ {
			g := NewGuestMemory(len(pages))
			for off := 0; off < len(pages); off += chunkPages {
				ps := chunk(off)
				g.ApplyPages(ps, fill[off*PageSize:])
			}
		}
	}
	b.Run("whole", func(b *testing.B) {
		run(b, func(off int) []int { return pages[off : off+chunkPages] })
	})
	b.Run("mixed", func(b *testing.B) {
		run(b, func(off int) []int { return pages[off : off+chunkPages-1] })
	})
}
