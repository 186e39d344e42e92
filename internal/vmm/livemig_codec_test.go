package vmm

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// TestLiveMigrateCodecs migrates the same guest memory image under each
// page codec and checks bit-exact arrival plus the codec's byte accounting:
// logical bytes partition TransferredBytes, wire bytes are real, and the
// delta codec actually saves wire bytes on a guest with zero and sparse
// pages.
func TestLiveMigrateCodecs(t *testing.T) {
	for _, codec := range []PageCodec{CodecFramedDelta, CodecFramed, CodecGob} {
		t.Run(codec.String(), func(t *testing.T) {
			_, _, src, dst := newCloud(t)
			vm, err := src.CreateVM(VMConfig{Name: "vm-" + codec.String(), MemPages: 512, VCPUs: 2, EPCQuota: 256})
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
			tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{
				BandwidthBps: 1e9,
				PageCodec:    codec,
				Metrics:      met,
			})
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
						t.Fatalf("page %d differs after %s migration", p, codec)
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
			switch codec {
			case CodecFramedDelta:
				if stats.DeltaFrames == 0 || stats.DeltaSavedBytes <= 0 {
					t.Fatalf("delta codec sent no deltas: %+v", stats)
				}
				// Zero and sparse pages compress, so the wire total must
				// beat the logical total.
				if stats.WireBytes >= stats.TransferredBytes {
					t.Fatalf("delta codec saved nothing: wire %d vs logical %d", stats.WireBytes, stats.TransferredBytes)
				}
				if met.Ratio("vmm.delta.hitrate").Total() == 0 {
					t.Fatal("delta hit-rate instrument never observed")
				}
			case CodecFramed, CodecGob:
				if stats.DeltaFrames != 0 || stats.DeltaSavedBytes != 0 {
					t.Fatalf("%s codec reported delta frames: %+v", codec, stats)
				}
			}
			if met.Counter("vmm.wire.bytes").Value() <= 0 {
				t.Fatal("vmm.wire.bytes counter never incremented")
			}
		})
	}
}

// TestLiveMigrateCompressRaw migrates the same guest twice — with and
// without the CompressRaw knob — and checks the compressed run arrives
// bit-exact, books its rawz frames and flate savings in the ledger, and
// actually spends fewer wire bytes than the plain run.
func TestLiveMigrateCompressRaw(t *testing.T) {
	run := func(t *testing.T, compress bool) (*VM, *LiveMigrationStats, []byte) {
		_, _, src, dst := newCloud(t)
		vm, err := src.CreateVM(VMConfig{Name: "vm-flate", MemPages: 512, VCPUs: 2, EPCQuota: 256})
		if err != nil {
			t.Fatal(err)
		}
		// Dense-but-redundant pages: every byte non-zero, so the XOR delta
		// against the zero baseline finds no runs to elide and passes the
		// pages through raw — while DEFLATE collapses the repetition. This
		// is exactly the residue the CompressRaw knob targets.
		page := bytes.Repeat([]byte("redundant-guest-structure.v1####"), PageSize/32)
		for p := 0; p < vm.Config.MemPages; p += 2 {
			if err := vm.Mem.Write(uint64(p)*PageSize, page[:PageSize]); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]byte, vm.Mem.Bytes())
		if err := vm.Mem.Read(0, want); err != nil {
			t.Fatal(err)
		}
		tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{
			BandwidthBps: 1e9,
			CompressRaw:  compress,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tvm, stats, want
	}

	tvm, plain, _ := run(t, false)
	if plain.RawzFrames != 0 || plain.FlateSavedBytes != 0 {
		t.Fatalf("knob off but rawz ledger populated: %+v", plain)
	}
	_ = tvm

	tvm, zstats, want := run(t, true)
	got := make([]byte, tvm.Mem.Bytes())
	if err := tvm.Mem.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("compressed migration corrupted guest memory")
	}
	if zstats.RawzFrames == 0 || zstats.FlateSavedBytes <= 0 {
		t.Fatalf("knob on but no rawz frames booked: %+v", zstats)
	}
	// Identical logical work, cheaper wire: same pages shipped...
	if zstats.TransferredBytes != plain.TransferredBytes {
		t.Fatalf("logical bytes differ: %d vs %d", zstats.TransferredBytes, plain.TransferredBytes)
	}
	// ...for measurably fewer encoded bytes.
	if zstats.WireBytes >= plain.WireBytes {
		t.Fatalf("compression saved nothing: wire %d vs %d", zstats.WireBytes, plain.WireBytes)
	}
	if wsum := zstats.BulkWireBytes + zstats.PreCopyWireBytes + zstats.StopCopyWireBytes + zstats.EnclaveCtlBytes; wsum != zstats.WireBytes {
		t.Fatalf("wire phase bytes %d do not partition WireBytes %d", wsum, zstats.WireBytes)
	}
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
			srcMem.MarkAllDirty()
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
