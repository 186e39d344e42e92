package vmm

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/testapps"
)

// windowRace is the test harness around one migration that drives the
// interleaving the pipelined legs made possible: the target guest builds its
// incoming enclaves and stages their checkpoints in shared windows of target
// memory while the page stream is still writing source pages to the very
// same offsets, and the enclaves read those checkpoints only at the commit.
//
// Three interposers share it. heldLeg keeps every leg's target half from
// starting until round 1 is on the wire; the source side of the page stream
// (roundWatch) reports that moment; and its target side (restream) re-sends,
// between any two frames of the real stream and for as long as a leg is
// still attesting, the frame that hurts: the first page of every window's
// checkpoint area, with the content the source holds there. That content
// never changes: the stand-in for a plain process that owns the range
// rewrites the same bytes behind every frame the stream sends, which keeps
// the pages in every round without changing them. A re-sent frame is
// therefore indistinguishable from the round that carries those pages
// anyway — the harness only takes the timing luck out of when it lands.
type windowRace struct {
	bulkPages int64                  // the guest's resident pages: at least what the bulk round carries
	dirty     func()                 // rewrites the source's copy of the window pages
	frame     func() *core.PageFrame // those pages as the stream carries them
	legs      atomic.Int32           // target halves that have not finished attesting
	sent      atomic.Int64           // pages the stream has carried so far
	round1    chan struct{}          // closed when round 1 is on the wire
	once      sync.Once
}

// heldLeg is a leg's target half: its first receive — the image
// announcement, so the whole half: build and attested channel — waits for
// round 1. It wraps a legWatch, whose count of channel-oks still to come
// tells restream when the attestations are over.
type heldLeg struct {
	core.Transport
	race *windowRace
	once sync.Once
}

func (h *heldLeg) Recv() (core.Message, error) {
	h.once.Do(func() { <-h.race.round1 })
	return h.Transport.Recv()
}

// roundWatch is the page stream's sending half: once it has carried more
// pages than the guest had resident when the migration started, the bulk
// round is over and round 1 under way (if the concurrent dump backs an
// extent before the bulk round is collected, the round is a chunk longer
// than counted and round1 closes during its last chunk: the stream is live
// either way). Dirtying the range behind every frame puts it
// in that round for certain.
type roundWatch struct {
	core.Transport
	race *windowRace
}

func (r *roundWatch) SendFrame(f *core.PageFrame) error {
	r.race.dirty()
	if r.race.sent.Add(int64(len(f.Pages))) > r.race.bulkPages {
		r.race.once.Do(func() { close(r.race.round1) })
	}
	return r.Transport.SendFrame(f)
}

// restream is the page stream's receiving half.
type restream struct {
	core.Transport
	race *windowRace
	real chan recvd // the real stream, pumped; cap 1: the Close after FrameEnd
}

type recvd struct {
	f   *core.PageFrame
	err error
}

func newRestream(inner core.Transport, race *windowRace) *restream {
	r := &restream{Transport: inner, race: race, real: make(chan recvd, 1)}
	go func() {
		for {
			f, err := inner.RecvFrame()
			r.real <- recvd{f, err}
			if err != nil {
				return
			}
		}
	}()
	return r
}

func (r *restream) RecvFrame() (*core.PageFrame, error) {
	for {
		select {
		case it := <-r.real:
			return it.f, it.err
		case <-r.race.round1:
			if r.race.legs.Load() > 0 {
				return r.race.frame(), nil
			}
			it := <-r.real
			return it.f, it.err
		}
	}
}

// TestLiveMigrateClaimedWindows: 50 migrations through the windowRace
// harness, every one of which must land with every enclave answering its
// count. On a build without GuestMemory's claim the source page lands
// between the staged checkpoint and the in-enclave read — re-sent while the
// legs attest, and carried by every later round since the source keeps
// dirtying it — and the first restore refuses the checkpoint.
func TestLiveMigrateClaimedWindows(t *testing.T) {
	const enclaves = 2
	window := uint64(enclave.SharedSizeFor(appLayout(testapps.CounterApp(2))))
	pattern := bytes.Repeat([]byte("source page "), PageSize/12+1)[:PageSize]
	for i := 0; i < 50; i++ {
		_, owner, src, dst := newCloud(t)
		deployCounter(t, owner, src, dst)
		vm, err := src.CreateVM(VMConfig{Name: "vm-window", MemPages: 512, VCPUs: 4, EPCQuota: 2048})
		if err != nil {
			t.Fatal(err)
		}
		// The source keeps plain data exactly where the target guest will
		// put its windows: both bump-allocate upwards from the same base.
		base, err := vm.OS.allocShared(enclaves * window)
		if err != nil {
			t.Fatal(err)
		}
		race := &windowRace{round1: make(chan struct{})}
		race.legs.Store(enclaves)
		var ckptPages []int
		for e := uint64(0); e < enclaves; e++ {
			ckptPages = append(ckptPages, int((base+e*window+enclave.SharedCkptOff)/PageSize))
		}
		race.frame = func() *core.PageFrame {
			return &core.PageFrame{Kind: core.FrameRaw, Pages: ckptPages, Data: bytes.Repeat(pattern, enclaves)}
		}
		race.dirty = func() {
			for _, p := range ckptPages {
				if err := vm.Mem.Write(uint64(p)*PageSize, pattern); err != nil {
					t.Error(err)
				}
			}
		}
		race.dirty()

		want := make(map[string]uint64)
		for e := 0; e < enclaves; e++ {
			p, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", e), "counter", owner, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[p.Name] = uint64(1000*i + e + 1)
			if _, err := p.RT.ECall(0, testapps.CounterAdd, want[p.Name]); err != nil {
				t.Fatal(err)
			}
		}
		race.bulkPages = int64(residentPages(vm.Mem))
		tvm, _, err := LiveMigrate(vm, dst, &LiveMigrationConfig{
			BandwidthBps: 250e6,
			TransportFactory: func(name string, s, d core.Transport) (core.Transport, core.Transport) {
				if name == PageStreamName {
					return &roundWatch{Transport: s, race: race}, newRestream(d, race)
				}
				return s, &heldLeg{Transport: &legWatch{Transport: d, left: &race.legs}, race: race}
			},
		})
		if err != nil {
			t.Fatalf("migration %d: %v", i, err)
		}
		if got := len(tvm.OS.Processes()); got != enclaves {
			t.Fatalf("migration %d: %d enclave processes on the target, want %d", i, got, enclaves)
		}
		for _, p := range tvm.OS.Processes() {
			res, err := p.RT.ECall(0, testapps.CounterGet)
			if err != nil || res[0] != want[p.Name] {
				t.Fatalf("migration %d: %s answers %v, %v; want %d", i, p.Name, res, err, want[p.Name])
			}
		}
		if err := tvm.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}
