package sgx

import (
	"errors"
	"testing"

	"repro/internal/tcb"
)

// extPair builds two extension-enabled machines sharing an installed
// migration key (installed directly — the attested establishment protocol
// is exercised in internal/hwext; these tests pin the instruction
// semantics).
func extPair(t *testing.T) (*Machine, *Machine) {
	t.Helper()
	key, err := tcb.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	return extMachine(t, "ext-src", key), extMachine(t, "ext-dst", key)
}

// extMachine boots an extension-enabled machine with key installed as its
// migration key both ways.
func extMachine(t *testing.T, name string, key tcb.Key) *Machine {
	t.Helper()
	m := newTestMachine(t, Config{Name: name, MigrationExtension: true})
	sealer, err := tcb.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.migSeal, m.migOpen = sealer, sealer
	m.mu.Unlock()
	return m
}

func TestESWPOUTRequiresFreeze(t *testing.T) {
	src, _ := extPair(t)
	eid, _ := buildTestEnclave(t, src, &testProgram{hash: 0x31})
	if _, err := src.ESWPOUT(eid, 0); !errors.Is(err, ErrEnclaveNotFrozen) {
		t.Fatalf("ESWPOUT without EMIGRATE: %v", err)
	}
	if _, err := src.ESWPOUTSECS(eid); !errors.Is(err, ErrEnclaveNotFrozen) {
		t.Fatalf("ESWPOUTSECS without EMIGRATE: %v", err)
	}
}

func TestTransparentPageTransport(t *testing.T) {
	src, dst := extPair(t)
	prog := &testProgram{hash: 0x32}
	eid, tcsLin := buildTestEnclave(t, src, prog)
	lp := src.NewLP()
	if _, err := src.EENTER(lp, eid, tcsLin, []uint64{tpStore, Address(1, 8), 0xfeedface}, nil); err != nil {
		t.Fatal(err)
	}
	if err := src.EMIGRATE(eid); err != nil {
		t.Fatal(err)
	}
	secs, err := src.ESWPOUTSECS(eid)
	if err != nil {
		t.Fatal(err)
	}
	lins, err := src.ResidentPages(eid)
	if err != nil {
		t.Fatal(err)
	}
	var pages []*MigratedPage
	for _, lin := range lins {
		mp, err := src.ESWPOUT(eid, lin)
		if err != nil {
			t.Fatal(err)
		}
		// The transport blob is ciphertext.
		for i := 0; i+8 <= len(mp.Cipher); i++ {
			v := uint64(0)
			for j := 0; j < 8; j++ {
				v |= uint64(mp.Cipher[i+j]) << (8 * j)
			}
			if v == 0xfeedface {
				t.Fatal("plaintext visible in ESWPOUT blob")
			}
		}
		pages = append(pages, mp)
	}

	eid2, err := dst.ESWPINSECS(0, secs, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, mp := range pages {
		if err := dst.ESWPIN(FrameIndex(1+i), eid2, mp); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.EMIGRATEDONE(eid2); err != nil {
		t.Fatal(err)
	}
	lp2 := dst.NewLP()
	res, err := dst.EENTER(lp2, eid2, tcsLin, []uint64{tpLoad, Address(1, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[0] != 0xfeedface {
		t.Fatalf("migrated value = %x", res.Regs[0])
	}
}

func TestEMIGRATEDONEDetectsMissingPage(t *testing.T) {
	src, dst := extPair(t)
	prog := &testProgram{hash: 0x33}
	eid, _ := buildTestEnclave(t, src, prog)
	if err := src.EMIGRATE(eid); err != nil {
		t.Fatal(err)
	}
	secs, err := src.ESWPOUTSECS(eid)
	if err != nil {
		t.Fatal(err)
	}
	lins, err := src.ResidentPages(eid)
	if err != nil {
		t.Fatal(err)
	}
	eid2, err := dst.ESWPINSECS(0, secs, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Install all pages but one.
	skipped := false
	fi := 1
	for _, lin := range lins {
		mp, err := src.ESWPOUT(eid, lin)
		if err != nil {
			t.Fatal(err)
		}
		if !skipped && mp.Type == PTReg && mp.Lin > 0 {
			skipped = true
			continue
		}
		if err := dst.ESWPIN(FrameIndex(fi), eid2, mp); err != nil {
			t.Fatal(err)
		}
		fi++
	}
	if err := dst.EMIGRATEDONE(eid2); !errors.Is(err, ErrStateDigest) {
		t.Fatalf("incomplete migration accepted: %v", err)
	}
}

func TestESWPINRejectsWrongKey(t *testing.T) {
	src, _ := extPair(t)
	// A third machine with a DIFFERENT migration key.
	otherKey, _ := tcb.RandomKey()
	other := extMachine(t, "other", otherKey)

	prog := &testProgram{hash: 0x34}
	eid, _ := buildTestEnclave(t, src, prog)
	if err := src.EMIGRATE(eid); err != nil {
		t.Fatal(err)
	}
	secs, err := src.ESWPOUTSECS(eid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ESWPINSECS(0, secs, prog); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("SECS accepted under wrong migration key: %v", err)
	}
}

func TestECHANGEOUTIn(t *testing.T) {
	src, dst := extPair(t)
	prog := &testProgram{hash: 0x35}
	eid, tcsLin := buildTestEnclave(t, src, prog)
	lp := src.NewLP()
	if _, err := src.EENTER(lp, eid, tcsLin, []uint64{tpStore, Address(2, 0), 0xabcd}, nil); err != nil {
		t.Fatal(err)
	}
	// Evict page 2 the ordinary way (EWB) first.
	if err := src.EPA(100); err != nil {
		t.Fatal(err)
	}
	ev, err := src.EWB(3 /* frame of page 2 */, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze; the evicted page travels via ECHANGEOUT without re-entering
	// EPC.
	if err := src.EMIGRATE(eid); err != nil {
		t.Fatal(err)
	}
	mp, err := src.ECHANGEOUT(ev, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ECHANGEOUT consumed the VA slot: the EWB blob is now dead.
	if err := src.ELDU(50, ev, 100, 0); !errors.Is(err, ErrReplay) {
		t.Fatalf("EWB blob usable after ECHANGEOUT: %v", err)
	}

	// Target: carry the rest normally, park page 2 back into an EWB blob
	// with ECHANGEIN, then load it with ELDU.
	secs, err := src.ESWPOUTSECS(eid)
	if err != nil {
		t.Fatal(err)
	}
	eid2, err := dst.ESWPINSECS(0, secs, prog)
	if err != nil {
		t.Fatal(err)
	}
	lins, err := src.ResidentPages(eid)
	if err != nil {
		t.Fatal(err)
	}
	fi := 1
	for _, lin := range lins {
		pg, err := src.ESWPOUT(eid, lin)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.ESWPIN(FrameIndex(fi), eid2, pg); err != nil {
			t.Fatal(err)
		}
		fi++
	}
	if err := dst.EPA(100); err != nil {
		t.Fatal(err)
	}
	ev2, err := dst.ECHANGEIN(eid2, mp, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The freeze-time digest covers the pages that were RESIDENT at
	// EMIGRATE; ECHANGE'd pages stay parked as (per-page authenticated)
	// EWB blobs until after EMIGRATEDONE and load through the ordinary
	// ELDU path.
	if err := dst.EMIGRATEDONE(eid2); err != nil {
		t.Fatal(err)
	}
	if err := dst.ELDU(FrameIndex(fi), ev2, 100, 3); err != nil {
		t.Fatal(err)
	}
	lp2 := dst.NewLP()
	res, err := dst.EENTER(lp2, eid2, tcsLin, []uint64{tpLoad, Address(2, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[0] != 0xabcd {
		t.Fatalf("ECHANGE round trip value = %x", res.Regs[0])
	}
}
