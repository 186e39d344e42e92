package enclave

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/internal/sgx"
	"repro/internal/tcb"
)

// TestRecycledFramesReadZero: an enclave is built, fills its heap and is
// destroyed on a host with fewer EPC frames than it has pages, so the
// second build of the same image goes into frames that EWB and the teardown
// freed, each still holding a page of the first one's data. Every heap page
// of the second reads zero from inside it, and its MRENCLAVE is the one
// MeasureApp computes offline.
func TestRecycledFramesReadZero(t *testing.T) {
	m, err := sgx.NewMachine(sgx.Config{Name: "recycle", EPCFrames: 48})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := tcb.NewSigningIdentity()
	if err != nil {
		t.Fatal(err)
	}
	host := NewBareHost(m)
	// The ecall counts the heap's nonzero words, then fills every word.
	app := simpleApp("recycled", func(c *Call) AppStatus {
		dirty := uint64(0)
		for addr := c.HeapBase(); addr < c.HeapBase()+c.HeapSize(); addr += 8 {
			v, err := c.Load64(addr)
			if err != nil {
				return AppAbort
			}
			if v != 0 {
				dirty++
			}
			if err := c.Store64(addr, 0xa5a5a5a5a5a5a5a5); err != nil {
				return AppAbort
			}
		}
		c.Regs[0] = dirty
		return AppDone
	})
	app.HeapPages = 64
	for round := 0; round < 2; round++ {
		rt, err := Build(host, app, signer)
		if err != nil {
			t.Fatalf("build %d: %v", round, err)
		}
		if mr, err := m.EnclaveMeasurement(rt.EnclaveID()); err != nil || mr != MeasureApp(app) {
			t.Fatalf("build %d: MRENCLAVE differs from MeasureApp (%v)", round, err)
		}
		res, err := rt.ECall(0, 0)
		if err != nil {
			t.Fatalf("build %d: %v", round, err)
		}
		if res[0] != 0 {
			t.Fatalf("build %d: %d heap words nonzero on entry, want none", round, res[0])
		}
		if err := rt.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	if evictions, _ := host.Mgr.Stats(); evictions == 0 {
		t.Fatal("no page was evicted: the second build never met a frame EWB freed")
	}
}

// wipedPuts records every buffer that goes back to the checkpoint pool
// while the test runs and reports, at the end, how many did and whether
// each was all zero.
func wipedPuts(t *testing.T) func() (puts int, dirty bool) {
	var n int
	var dirty bool
	ckptBufPut = func(b []byte) {
		n++
		for _, x := range b {
			if x != 0 {
				dirty = true
				return
			}
		}
	}
	t.Cleanup(func() { ckptBufPut = nil })
	return func() (int, bool) { return n, dirty }
}

// TestRecycledCkptBufWiped: the buffer a restore opens a checkpoint into
// holds plaintext, and the one a dump seals in holds unsealed leaves when
// the walk fails part-way. Each goes back to the pool all zero — after a
// restore, after a re-sealed checkpoint is refused as bad before any record
// is applied, and after a dump whose page walk fails.
func TestRecycledCkptBufWiped(t *testing.T) {
	l, per := fuzzLayout, fuzzLeafRecords
	records, blob := sealTestCheckpoint(t, l, per, tcb.CipherAESGCM, fuzzKey, fuzzMR)
	restore := func(b []byte) (applied int, err error) {
		err = restoreCheckpoint(l, per, fuzzMR, false, fuzzKey, len(b), loadFrom(b), func(sgx.PageNum, []byte) error {
			applied++
			return nil
		})
		return applied, err
	}

	t.Run("restored", func(t *testing.T) {
		wiped := wipedPuts(t)
		if applied, err := restore(blob); err != nil || applied != len(records)/ckptRecord {
			t.Fatalf("restore applied %d records, want %d (%v)", applied, len(records)/ckptRecord, err)
		}
		if puts, dirty := wiped(); puts != 1 || dirty {
			t.Fatalf("%d buffers went back (want 1), one not wiped: %v", puts, dirty)
		}
	})

	t.Run("refused", func(t *testing.T) {
		// The second leaf's first record renamed to a TCS page and the leaf
		// sealed again under its own index: it opens, and the record walk
		// refuses it.
		g, err := newCkptGeometry(l, tcb.CipherAESGCM, per)
		if err != nil {
			t.Fatal(err)
		}
		hdr, _, err := UnmarshalHeader(blob)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tcb.NewLeafSealer(tcb.CipherAESGCM, fuzzKey, hdr.Salt[:])
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), blob...)
		head, count := bad[:g.offs[0]], uint32(g.leaves)
		rec := g.record(bad, 1)
		pt, err := s.Open(rec, head, 1, count)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(pt, uint32(l.TCSPage(1)))
		if err := s.Seal(rec, len(pt), head, 1, count); err != nil {
			t.Fatal(err)
		}
		wiped := wipedPuts(t)
		if applied, err := restore(bad); !errors.Is(err, errCkptBad) || applied != 0 {
			t.Fatalf("re-sealed record naming a TCS page: %v after %d records applied, want errCkptBad before any", err, applied)
		}
		if puts, dirty := wiped(); puts != 1 || dirty {
			t.Fatalf("%d buffers went back (want 1), one not wiped: %v", puts, dirty)
		}
	})

	t.Run("failed dump", func(t *testing.T) {
		g, err := newCkptGeometry(l, tcb.CipherAESGCM, per)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tcb.NewLeafSealer(tcb.CipherAESGCM, fuzzKey, make([]byte, tcb.SaltSize))
		if err != nil {
			t.Fatal(err)
		}
		walkFailed := errors.New("page walk failed")
		leaves := 0
		fill := func(rec []byte) error {
			if leaves++; leaves == g.leaves {
				return walkFailed
			}
			for i := range rec {
				rec[i] = 0x5a
			}
			return nil
		}
		wiped := wipedPuts(t)
		if err := sealCheckpoint(g, blob[:g.offs[0]], s, fill, discardEmit, discardPublish); !errors.Is(err, walkFailed) {
			t.Fatalf("dump = %v, want the walk's error", err)
		}
		if puts, dirty := wiped(); puts != 1 || dirty {
			t.Fatalf("%d buffers went back (want 1), one not wiped: %v", puts, dirty)
		}
	})
}

// TestRecycledCkptBufsConcurrent: dumps and restores of several enclaves
// share the pool from as many goroutines. Every buffer handed out is all
// zero, whatever the one before it in that class held.
func TestRecycledCkptBufsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := getCkptBuf(20<<10 + 100*i)
				for j, x := range b {
					if x != 0 {
						t.Errorf("byte %d of a %d-byte buffer from the pool = %#x", j, len(b), x)
						break
					}
				}
				for j := range b {
					b[j] = 0x77
				}
				putCkptBuf(b)
			}
		}()
	}
	wg.Wait()
}

// TestCkptClass: a class's capacity fits the request by at most a quarter
// over (4 KiB at least), and a capacity maps back to its own class.
func TestCkptClass(t *testing.T) {
	for _, n := range []int{1, 4095, 4096, 4097, 5 << 10, 5<<10 + 1, 1 << 20, 8_589_312, 1<<30 + 3} {
		class, size := ckptClass(n)
		if size < n || size > max(4<<10, n+n/4) {
			t.Errorf("n=%d: capacity %d", n, size)
		}
		if c, s := ckptClass(size); c != class || s != size {
			t.Errorf("n=%d: capacity %d is class %d (%d), not its own %d", n, size, c, s, class)
		}
		if class < 0 || class >= len(ckptBufs) {
			t.Errorf("n=%d: class %d out of range", n, class)
		}
	}
}
