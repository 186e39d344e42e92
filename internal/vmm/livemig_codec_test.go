package vmm

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestLiveMigrateCodecs migrates a guest memory image of dense, sparse and
// zero pages and checks bit-exact arrival plus the page codec's byte
// accounting: logical bytes partition TransferredBytes, wire bytes are real
// and partition too, dense pages pass through raw, and delta encoding saves
// wire bytes on the zero and sparse ones.
func TestLiveMigrateCodecs(t *testing.T) {
	// The one codec left; the subtest keeps the name it had beside the
	// retired gob and framed-only baselines.
	t.Run("framed+delta", func(t *testing.T) {
		_, _, src, dst := newCloud(t)
		vm, err := src.CreateVM(VMConfig{Name: "vm-codec", MemPages: 512, VCPUs: 2, EPCQuota: 256})
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic guest image: dense random pages, sparse pages,
		// and untouched zero pages — the mix delta encoding targets.
		rng := rand.New(rand.NewSource(7))
		page := make([]byte, PageSize)
		for p := 0; p < vm.Config.MemPages; p += 3 {
			rng.Read(page)
			if err := vm.Mem.Write(uint64(p)*PageSize, page); err != nil {
				t.Fatal(err)
			}
		}
		for p := 1; p < vm.Config.MemPages; p += 7 {
			if err := vm.Mem.Write(uint64(p)*PageSize+128, []byte("sparse dirty window")); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]byte, vm.Mem.Bytes())
		if err := vm.Mem.Read(0, want); err != nil {
			t.Fatal(err)
		}

		met := telemetry.NewMetrics()
		tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 1e9, Metrics: met})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, tvm.Mem.Bytes())
		if err := tvm.Mem.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			for p := 0; p < vm.Config.MemPages; p++ {
				a, b := want[p*PageSize:(p+1)*PageSize], got[p*PageSize:(p+1)*PageSize]
				if !bytes.Equal(a, b) {
					t.Fatalf("page %d differs after migration", p)
				}
			}
		}

		if sum := stats.BulkBytes + stats.PreCopyBytes + stats.StopCopyBytes + stats.EnclaveCtlBytes; sum != stats.TransferredBytes {
			t.Fatalf("phase bytes %d do not partition TransferredBytes %d", sum, stats.TransferredBytes)
		}
		if stats.WireBytes <= 0 || stats.BulkWireBytes <= 0 {
			t.Fatalf("missing wire accounting: %+v", stats)
		}
		if wsum := stats.BulkWireBytes + stats.PreCopyWireBytes + stats.StopCopyWireBytes + stats.EnclaveCtlBytes; wsum != stats.WireBytes {
			t.Fatalf("wire phase bytes %d do not partition WireBytes %d", wsum, stats.WireBytes)
		}
		if stats.RawFrames == 0 {
			t.Fatalf("dense random pages did not pass through raw: %+v", stats)
		}
		if stats.DeltaFrames == 0 || stats.DeltaSavedBytes <= 0 {
			t.Fatalf("no deltas sent: %+v", stats)
		}
		// Zero and sparse pages compress, so the wire total must beat the
		// logical total.
		if stats.WireBytes >= stats.TransferredBytes {
			t.Fatalf("delta encoding saved nothing: wire %d vs logical %d", stats.WireBytes, stats.TransferredBytes)
		}
		if met.Ratio("vmm.delta.hitrate").Total() == 0 {
			t.Fatal("delta hit-rate instrument never observed")
		}
		if met.Counter("vmm.wire.bytes").Value() <= 0 {
			t.Fatal("vmm.wire.bytes counter never incremented")
		}
	})
}

// TestApplyPageDeltasBounds: a delta aimed outside guest memory must be
// rejected, not install or panic.
func TestApplyPageDeltasBounds(t *testing.T) {
	g := NewGuestMemory(4)
	if err := g.ApplyPageDeltas([]int{7}, []int{0}, nil); err == nil {
		t.Fatal("out-of-range delta page accepted")
	}
	if err := g.ApplyPageDeltas([]int{-1}, []int{0}, nil); err == nil {
		t.Fatal("negative delta page accepted")
	}
	// A valid empty delta is a no-op.
	if err := g.ApplyPageDeltas([]int{2}, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChunkSenderDeltaRounds drives the chunk sender directly across
// simulated pre-copy rounds with random re-dirty patterns and checks the
// target arrives bit-exact — the delta-correctness property at the vmm
// layer (the baselines the source memory keeps vs FIFO application).
func TestChunkSenderDeltaRounds(t *testing.T) {
	const pages = 64
	rng := rand.New(rand.NewSource(11))
	srcMem := NewGuestMemory(pages)
	dstMem := NewGuestMemory(pages)
	cfg := &LiveMigrationConfig{BandwidthBps: 1e9}
	snd := newChunkSender(srcMem, dstMem, cfg, nil)
	var logical, wire int64

	buf := make([]byte, 256)
	// Round 0: everything; later rounds: random small re-dirty windows.
	for round := 0; round < 5; round++ {
		var dirty []int
		if round == 0 {
			for p := 0; p < pages; p += 2 {
				rng.Read(buf)
				if err := srcMem.Write(uint64(p)*PageSize+uint64(rng.Intn(PageSize-256)), buf); err != nil {
					t.Fatal(err)
				}
			}
			srcMem.MarkResidentDirty()
			dirty = srcMem.CollectDirty()
		} else {
			for i := 0; i < 10; i++ {
				p := rng.Intn(pages)
				rng.Read(buf[:64])
				if err := srcMem.Write(uint64(p)*PageSize+uint64(rng.Intn(PageSize-64)), buf[:64]); err != nil {
					t.Fatal(err)
				}
			}
			if round == 2 {
				// A page the target holds non-zero goes back to zeros; the
				// later rounds' random windows may write it again.
				if err := srcMem.Write(0, make([]byte, PageSize)); err != nil {
					t.Fatal(err)
				}
			}
			dirty = srcMem.CollectDirty()
		}
		snd.send(dirty, 16, &logical, &wire, telemetry.Context{})
	}
	if err := snd.drain(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, srcMem.Bytes())
	got := make([]byte, dstMem.Bytes())
	if err := srcMem.Read(0, want); err != nil {
		t.Fatal(err)
	}
	if err := dstMem.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("target memory diverged from source after delta rounds")
	}
	if snd.deltaFrames == 0 {
		t.Fatal("re-dirty rounds produced no delta frames")
	}
	if wire <= 0 || wire >= logical {
		t.Fatalf("wire %d vs logical %d: deltas saved nothing", wire, logical)
	}
}

// heldBaselines reports how many saved baselines g holds and whether its
// stores are tracked.
func heldBaselines(g *GuestMemory) (int, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.base), g.tracking
}

// TestChunkSenderKeepsNoPageCopies: shipping a page keeps no copy of it on
// the source. A bulk round of 256 random pages allocates nothing per page
// beyond the pooled buffers (a sender that kept every shipped page as its
// delta baseline allocates 1 MiB); k pages rewritten after they were
// shipped cost exactly k saved baselines, the re-send hands them back, and
// drain leaves the memory untracked.
func TestChunkSenderKeepsNoPageCopies(t *testing.T) {
	const pages, k = 256, 5
	rng := rand.New(rand.NewSource(41))
	srcMem, dstMem := NewGuestMemory(pages), NewGuestMemory(pages)
	fill := make([]byte, pages*PageSize)
	rng.Read(fill)
	if err := srcMem.Write(0, fill); err != nil {
		t.Fatal(err)
	}
	srcMem.CollectDirty()
	// Back the target up front: the measured rounds must not pay for its
	// extents.
	if err := dstMem.Write(0, make([]byte, pages*PageSize)); err != nil {
		t.Fatal(err)
	}
	all := make([]int, pages)
	for i := range all {
		all[i] = i
	}
	cfg := &LiveMigrationConfig{BandwidthBps: 1e10}
	var logical, wire int64
	// A collection would empty the buffer pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bulk := func() (*chunkSender, uint64) {
		snd := newChunkSender(srcMem, dstMem, cfg, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snd.send(all, chunkPages, &logical, &wire, telemetry.Context{})
		snd.flush()
		runtime.ReadMemStats(&after)
		return snd, after.TotalAlloc - before.TotalAlloc
	}
	// The first round fills the pools; the least of the next three is what
	// a round costs beyond them. Each drain drops the baselines, so every
	// round ships all pages as to a peer that holds nothing.
	snd, _ := bulk()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		if err := snd.drain(); err != nil {
			t.Fatal(err)
		}
		var n uint64
		snd, n = bulk()
		least = min(least, n)
	}
	t.Logf("a bulk round of %d random pages allocated %d bytes beyond pooled buffers", pages, least)
	if least >= 64<<10 && !raceEnabled {
		t.Fatalf("a bulk round of %d random pages allocated %d bytes beyond pooled buffers, want < 64 KiB", pages, least)
	}
	if n, tracking := heldBaselines(srcMem); n != 0 || !tracking {
		t.Fatalf("after the bulk round: %d baselines held, tracking %v; want 0, true", n, tracking)
	}

	// Rewrite k shipped pages, twice each: the first store saves the
	// page's baseline, the second finds it saved.
	buf := make([]byte, 64)
	for i := 0; i < k; i++ {
		for j := 0; j < 2; j++ {
			rng.Read(buf)
			if err := srcMem.Write(uint64(i*37)*PageSize+uint64(j*512), buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, _ := heldBaselines(srcMem); n != k {
		t.Fatalf("%d shipped pages rewritten: %d baselines held", k, n)
	}
	deltas := snd.deltaFrames
	snd.send(srcMem.CollectDirty(), chunkPages, &logical, &wire, telemetry.Context{})
	if snd.deltaFrames == deltas {
		t.Fatal("the rewritten pages were not re-sent as deltas against their baselines")
	}
	if n, _ := heldBaselines(srcMem); n != 0 {
		t.Fatalf("after the re-send: %d baselines held, want 0", n)
	}
	if err := snd.drain(); err != nil {
		t.Fatal(err)
	}
	if n, tracking := heldBaselines(srcMem); n != 0 || tracking {
		t.Fatalf("after drain: %d baselines held, tracking %v; want 0, false", n, tracking)
	}
	want, got := make([]byte, srcMem.Bytes()), make([]byte, dstMem.Bytes())
	if err := srcMem.Read(0, want); err != nil {
		t.Fatal(err)
	}
	if err := dstMem.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("target memory diverged from source")
	}
}

// TestCaptureMatchesDeltaCache: the baselines guest memory keeps are the
// ones a DeltaCache of every shipped page would hold, so the stream is byte
// for byte what it was. Each round captures the dirty pages both ways —
// CopyPages into EncodeChunk over a cache, Capture into EncodePages — and
// compares the encoded frames, across first stores into unbacked extents,
// sparse and dense rewrites, and pages zeroed again.
func TestCaptureMatchesDeltaCache(t *testing.T) {
	const pages = 256
	rng := rand.New(rand.NewSource(43))
	mem := NewGuestMemory(pages)
	cache := make(core.DeltaCache)
	buf := make([]byte, PageSize)
	encoded := func(raw, delta *core.PageFrame) []byte {
		var out []byte
		for _, f := range []*core.PageFrame{raw, delta} {
			if f != nil {
				out = core.AppendFrame(out, f)
				f.Release()
			}
		}
		return out
	}
	for round := 0; round < 8; round++ {
		for i := 0; i < 40; i++ {
			p := rng.Intn(pages)
			switch n := rng.Intn(4); n {
			case 0: // a dense page
				rng.Read(buf)
			case 1: // back to zeros
				clear(buf)
			default: // a sparse rewrite
				if err := mem.Read(uint64(p)*PageSize, buf); err != nil {
					t.Fatal(err)
				}
				rng.Read(buf[rng.Intn(PageSize-64):][:64])
			}
			if err := mem.Write(uint64(p)*PageSize, buf); err != nil {
				t.Fatal(err)
			}
		}
		dirty := mem.CollectDirty()
		for off := 0; off < len(dirty); off += 16 {
			part := dirty[off:min(off+16, len(dirty))]
			data := core.GetBuf(len(part) * PageSize)
			mem.CopyPages(part, data)
			raw, delta, _ := core.EncodeChunk(part, data, cache)
			want := encoded(raw, delta)

			data = core.GetBuf(len(part) * PageSize)
			base := make([][]byte, len(part))
			held := mem.Capture(part, data, base, nil)
			raw, delta, _ = core.EncodePages(part, data, base)
			for _, b := range held {
				core.PutBuf(b)
			}
			if got := encoded(raw, delta); !bytes.Equal(got, want) {
				t.Fatalf("round %d, pages %v: frames differ from the delta cache's", round, part)
			}
		}
	}
	mem.DropBaselines()
}
