package sgx

import (
	"errors"
	"testing"
)

// TestRecycledFramesReadZero: an enclave is built into the frames another
// enclave left behind — one freed by EWB, the rest by DestroyEnclave — each
// of which still holds its old page and that page's last content. Every
// page added without content reads all zero, and the measurement is the one
// a fresh machine gives the same build.
func TestRecycledFramesReadZero(t *testing.T) {
	m, eid, tcsLin := evictSetup(t)
	lp := m.NewLP()
	regs := []PageNum{0, 1, 2, 3, 5, 6}
	for _, lin := range regs {
		for _, off := range []uint32{0, PageSize - 8} {
			if _, err := m.EENTER(lp, eid, tcsLin, []uint64{tpStore, Address(lin, off), 0xfeedfacecafe}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.mu.RLock()
	pages := make(map[FrameIndex]*Page)
	for _, lin := range regs {
		f := m.enclaves[eid].pageTable[lin]
		pages[f] = m.frames[f].data
	}
	m.mu.RUnlock()
	if _, err := m.EWB(2, 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.DestroyEnclave(eid); err != nil {
		t.Fatal(err)
	}

	prog := &testProgram{hash: 3}
	again, _ := buildTestEnclave(t, m, prog)
	fresh := newTestMachine(t, Config{Name: "fresh"})
	want, _ := buildTestEnclave(t, fresh, prog)
	mrAgain, err := m.EnclaveMeasurement(again)
	if err != nil {
		t.Fatal(err)
	}
	mrWant, err := fresh.EnclaveMeasurement(want)
	if err != nil {
		t.Fatal(err)
	}
	if mrAgain != mrWant {
		t.Fatal("an enclave built into recycled frames measures differently from a fresh build")
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, lin := range regs {
		f := m.enclaves[again].pageTable[lin]
		if m.frames[f].data != pages[f] {
			t.Fatalf("frame %d holds a new page: the frame did not keep its own", f)
		}
		for i, b := range m.frames[f].data {
			if b != 0 {
				t.Fatalf("page %d (frame %d) byte %d = %#x after a rebuild, want zero", lin, f, i, b)
			}
		}
	}
}

// TestRecycledBlobReplayRefused: a successful ELDU hands the blob's buffer
// back to the machine, and the next EWB seals into it. Neither that reuse
// nor a kept copy of the old blob opens a way to load a page twice: the
// consumed descriptor, a saved copy of its ciphertext and the recycled
// buffer itself are all refused as replays. A failed ELDU takes nothing
// back and leaves its frame free.
func TestRecycledBlobReplayRefused(t *testing.T) {
	m, _, _ := evictSetup(t)
	spares := func() int {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return len(m.spareBlobs)
	}
	ev, err := m.EWB(2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := ev.Cipher
	saved := *ev
	saved.Cipher = append([]byte(nil), ev.Cipher...)
	if err := m.ELDU(50, ev, 100, 0); err != nil {
		t.Fatal(err)
	}
	if ev.Cipher != nil || spares() != 1 {
		t.Fatalf("after ELDU: descriptor still holds its blob (%v) or %d spare buffers, want 1", ev.Cipher != nil, spares())
	}
	next, err := m.EWB(50, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &next.Cipher[0] != &buf[0] || spares() != 0 {
		t.Fatal("EWB did not seal into the buffer ELDU gave back")
	}

	recycled := saved
	recycled.Cipher = buf
	for name, ev := range map[string]*EvictedPage{
		"the consumed descriptor, again": ev,
		"a saved copy of the old blob":   &saved,
		"the old blob's recycled buffer": &recycled,
	} {
		if err := m.ELDU(51, ev, 100, 0); !errors.Is(err, ErrReplay) {
			t.Fatalf("%s: ELDU = %v, want ErrReplay", name, err)
		}
		if !m.FrameFree(51) || spares() != 0 {
			t.Fatalf("%s: the refused ELDU took frame 51 (free %v) or recycled a buffer (%d spare)", name, m.FrameFree(51), spares())
		}
	}

	bad := *next
	bad.Cipher = append([]byte(nil), next.Cipher...)
	bad.Cipher[PageSize/2] ^= 1
	if err := m.ELDU(51, &bad, 100, 0); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("tampered blob: ELDU = %v, want ErrSealBroken", err)
	}
	if !m.FrameFree(51) || spares() != 0 || bad.Cipher == nil {
		t.Fatal("a failed ELDU took its frame or the blob's buffer")
	}
	if err := m.ELDU(51, next, 100, 0); err != nil {
		t.Fatalf("the current blob after the refusals: %v", err)
	}
}
