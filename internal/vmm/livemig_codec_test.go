package vmm

import (
	"bytes"
	"math/rand"
	"testing"

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
// layer (cache baseline vs FIFO application).
func TestChunkSenderDeltaRounds(t *testing.T) {
	const pages = 64
	rng := rand.New(rand.NewSource(11))
	srcMem := NewGuestMemory(pages)
	dstMem := NewGuestMemory(pages)
	cfg := &LiveMigrationConfig{BandwidthBps: 1e9}
	snd := newChunkSender(dstMem, cfg, nil)
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
		snd.send(srcMem, dirty, 16, &logical, &wire, telemetry.Context{})
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
