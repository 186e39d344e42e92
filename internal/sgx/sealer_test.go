package sgx

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/tcb"
)

// TestELDUTamperInstallsNothing alters, one at a time, everything an evicted
// blob is bound to — ciphertext, tag, length, version and each AAD field —
// and checks the full failure contract of ELDU: the right error, the target
// frame still free, the VA slot still holding the version, and the pristine
// blob still loadable afterwards (a failed load consumed nothing).
func TestELDUTamperInstallsNothing(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(ev *EvictedPage)
		want   error
	}{
		{"cipher bit", func(ev *EvictedPage) { ev.Cipher[PageSize/2] ^= 0x10 }, ErrSealBroken},
		{"tag bit", func(ev *EvictedPage) { ev.Cipher[len(ev.Cipher)-1] ^= 1 }, ErrSealBroken},
		{"truncated", func(ev *EvictedPage) { ev.Cipher = ev.Cipher[:len(ev.Cipher)-1] }, ErrSealBroken},
		{"tag only", func(ev *EvictedPage) { ev.Cipher = ev.Cipher[:tcb.SealOverhead] }, ErrSealBroken},
		{"empty", func(ev *EvictedPage) { ev.Cipher = nil }, ErrSealBroken},
		{"oversized", func(ev *EvictedPage) { ev.Cipher = append(ev.Cipher, 0) }, ErrSealBroken},
		{"version", func(ev *EvictedPage) { ev.Version++ }, ErrReplay},
		{"aad enclave", func(ev *EvictedPage) { ev.Enclave = 2 }, ErrSealBroken},
		{"aad lin", func(ev *EvictedPage) { ev.Lin = 7 }, ErrSealBroken},
		{"aad type", func(ev *EvictedPage) { ev.Type = PTTcs }, ErrSealBroken},
		{"aad perm", func(ev *EvictedPage) { ev.Perm = PermR }, ErrSealBroken},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, eid, tcsLin := evictSetup(t)
			// A second enclave, so that a blob re-labelled as its page fails
			// on the seal rather than on the enclave lookup.
			if _, err := m.ECREATE(200, &testProgram{hash: 4}, 8, 2); err != nil {
				t.Fatal(err)
			}
			lp := m.NewLP()
			if _, err := m.EENTER(lp, eid, tcsLin, []uint64{tpStore, Address(1, 0), 0xfeed}, nil); err != nil {
				t.Fatal(err)
			}
			good, err := m.EWB(2, 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			bad := *good
			bad.Cipher = append([]byte(nil), good.Cipher...)
			tc.mutate(&bad)
			if err := m.ELDU(50, &bad, 100, 0); !errors.Is(err, tc.want) {
				t.Fatalf("ELDU = %v, want %v", err, tc.want)
			}
			if !m.FrameFree(50) {
				t.Fatal("failed ELDU left the target frame occupied")
			}
			if lins, _ := m.ResidentPages(eid); len(lins) != 6 {
				t.Fatalf("failed ELDU changed the page table: %d resident pages, want 6", len(lins))
			}
			m.mu.RLock()
			slot := m.frames[100].va.slots[0]
			m.mu.RUnlock()
			if slot != good.Version {
				t.Fatalf("VA slot = %d after a failed ELDU, want version %d", slot, good.Version)
			}
			if err := m.ELDU(50, good, 100, 0); err != nil {
				t.Fatalf("pristine blob after a failed ELDU: %v", err)
			}
			res, err := m.EENTER(lp, eid, tcsLin, []uint64{tpLoad, Address(1, 0)}, nil)
			if err != nil || res.Regs[0] != 0xfeed {
				t.Fatalf("reloaded value = %#x, %v", res.Regs[0], err)
			}
		})
	}
}

// TestEvictedTCSRejectsWrongSize covers the TCS arm of the size check: a REG
// blob re-labelled as a TCS must not be parsed as one even if the label
// were to authenticate, and a truncated TCS blob fails.
func TestEvictedTCSRejectsWrongSize(t *testing.T) {
	m, _, _ := evictSetup(t)
	ev, err := m.EWB(5, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	short := *ev
	short.Cipher = ev.Cipher[:len(ev.Cipher)-1]
	if err := m.ELDU(60, &short, 100, 0); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("truncated TCS blob: %v", err)
	}
	if err := m.ELDU(60, ev, 100, 0); err != nil {
		t.Fatalf("pristine TCS blob: %v", err)
	}
}

// TestEPUTKEYReplacesSealer pins that the expanded migration key cached at
// EPUTKEY is replaced, not kept, by the next EPUTKEY.
func TestEPUTKEYReplacesSealer(t *testing.T) {
	k1, _ := tcb.RandomKey()
	k2, _ := tcb.RandomKey()
	m := newTestMachine(t, Config{Name: "src", MigrationExtension: true})
	prog := &testProgram{hash: 0x36}
	eid, _ := buildTestEnclave(t, m, prog)
	mr, err := m.EnclaveMeasurement(eid)
	if err != nil {
		t.Fatal(err)
	}
	// The test enclave doubles as the control enclave.
	if err := m.RegisterControlEnclave(mr); err != nil {
		t.Fatal(err)
	}
	m.mu.RLock()
	env := &Env{m: m, e: m.enclaves[eid]}
	m.mu.RUnlock()

	if err := env.EPutKey(k1); err != nil {
		t.Fatal(err)
	}
	if err := m.EMIGRATE(eid); err != nil {
		t.Fatal(err)
	}
	under1, err := m.ESWPOUTSECS(eid)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.EPutKey(k2); err != nil {
		t.Fatal(err)
	}
	under2, err := m.ESWPOUTSECS(eid)
	if err != nil {
		t.Fatal(err)
	}
	has1, has2 := extMachine(t, "has-k1", k1), extMachine(t, "has-k2", k2)
	if _, err := has1.ESWPINSECS(0, under1, prog); err != nil {
		t.Fatalf("blob sealed under the first key: %v", err)
	}
	if _, err := has1.ESWPINSECS(1, under2, prog); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("blob sealed after the second EPUTKEY opened under the first key: %v", err)
	}
	if _, err := has2.ESWPINSECS(0, under2, prog); err != nil {
		t.Fatalf("blob sealed under the second key: %v", err)
	}
	m.ClearMigrationKey()
	if _, err := m.ESWPOUTSECS(eid); !errors.Is(err, ErrNoMigrationKey) {
		t.Fatalf("seal after ClearMigrationKey: %v", err)
	}
}

// mallocs counts the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPagingAllocations pins what the page path may allocate in steady
// state: EWB its descriptor, ELDU nothing. The frame keeps its page, and the
// blob ELDU consumed is the buffer the next EWB seals into. Anything more is
// a per-page cost the big-state migration pays about 8 500 times a hop.
func TestPagingAllocations(t *testing.T) {
	m, _, _ := evictSetup(t)
	const rounds = 100
	var ewb, eldu uint64
	for i := 0; i < rounds; i++ {
		var ev *EvictedPage
		var err error
		ewb += mallocs(func() { ev, err = m.EWB(2, 100, 0) })
		if err != nil {
			t.Fatal(err)
		}
		eldu += mallocs(func() { err = m.ELDU(2, ev, 100, 0) })
		if err != nil {
			t.Fatal(err)
		}
	}
	// Whole objects per call, as testing.AllocsPerRun reports them: the
	// sealer's nonce pool refills after a GC (and at random under -race),
	// and the first EWB allocates the buffer every later one reuses.
	if ewb/rounds > 1 {
		t.Errorf("EWB allocates %.2f objects per call, want at most 1 (the descriptor)", float64(ewb)/rounds)
	}
	if eldu/rounds > 0 {
		t.Errorf("ELDU allocates %.2f objects per call, want 0", float64(eldu)/rounds)
	}
}

func BenchmarkEWB(b *testing.B) {
	m, _, _ := evictSetup(b)
	b.ReportAllocs()
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := m.EWB(2, 100, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := m.ELDU(2, ev, 100, 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkELDU(b *testing.B) {
	m, _, _ := evictSetup(b)
	b.ReportAllocs()
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ev, err := m.EWB(2, 100, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.ELDU(2, ev, 100, 0); err != nil {
			b.Fatal(err)
		}
	}
}
