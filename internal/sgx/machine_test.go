package sgx

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/tcb"
)

// testProgram is a trivial measured program: selector in R0 dispatches a
// few behaviours used to probe the hardware semantics.
type testProgram struct {
	hash byte
}

func (p *testProgram) CodeHash() [32]byte { return [32]byte{p.hash} }

// Selectors for testProgram.
const (
	tpExit      = 0 // exit immediately, R1 echoed into R0
	tpSpin      = 1 // run forever (until interrupted)
	tpStore     = 2 // store R2 at address R1, then exit
	tpLoad      = 3 // load R1 into R0, then exit
	tpAbort     = 4 // abort
	tpCount     = 5 // increment R0 each step, R1 times, then exit
	tpReadCSSA  = 6 // return the R7 value observed at entry
	tpTouchTCS  = 7 // try to read the TCS page at R1; R0=1 if denied
	tpGetKey    = 8 // store seal key at address R1
	tpWriteBack = 9 // store R7 (entry CSSA) at address R1, then spin
)

// pcCounting marks the counting-mode continuation of tpCount.
const pcCounting = 77

func (p *testProgram) Step(env *Env, ctx *Context) Status {
	if ctx.PC == pcCounting {
		ctx.R[0]++
		if ctx.R[0] >= ctx.R[1] {
			return StatusExit
		}
		return StatusRunning
	}
	switch ctx.R[0] {
	case tpExit:
		ctx.R[0] = ctx.R[1]
		return StatusExit
	case tpSpin:
		return StatusRunning
	case tpStore:
		if err := env.Store64(ctx.R[1], ctx.R[2]); err != nil {
			return StatusAbort
		}
		return StatusExit
	case tpLoad:
		v, err := env.Load64(ctx.R[1])
		if err != nil {
			return StatusAbort
		}
		ctx.R[0] = v
		return StatusExit
	case tpAbort:
		return StatusAbort
	case tpCount:
		ctx.PC = pcCounting
		ctx.R[0] = 0
		return StatusRunning
	case tpReadCSSA:
		ctx.R[0] = ctx.R[7]
		return StatusExit
	case tpTouchTCS:
		var b [8]byte
		err := env.Load(ctx.R[1], b[:])
		if errors.Is(err, ErrPermission) {
			ctx.R[0] = 1
		} else {
			ctx.R[0] = 0
		}
		return StatusExit
	case tpGetKey:
		k := env.EGetKey(KeySealMRENCLAVE)
		if err := env.Store(ctx.R[1], k[:]); err != nil {
			return StatusAbort
		}
		return StatusExit
	default:
		return StatusAbort
	}
}

// buildTestEnclave assembles a minimal enclave in frames 0..7: pages 0..3
// REG, page 4 TCS (entry 0, 2 SSA frames at pages 5-6).
func buildTestEnclave(t testing.TB, m *Machine, prog Program) (EnclaveID, PageNum) {
	t.Helper()
	return buildTestEnclaveAt(t, m, prog, 0)
}

// buildTestEnclaveAt is buildTestEnclave in frames base..base+7, SECS
// first, then frame base+1+lin for page lin.
func buildTestEnclaveAt(t testing.TB, m *Machine, prog Program, base FrameIndex) (EnclaveID, PageNum) {
	t.Helper()
	eid, err := m.ECREATE(base, prog, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for lin := PageNum(0); lin < 4; lin++ {
		if err := m.EADD(base+FrameIndex(1+lin), eid, lin, PermR|PermW, nil); err != nil {
			t.Fatal(err)
		}
	}
	tcsLin := PageNum(4)
	if err := m.EADDTCS(base+5, eid, tcsLin, TCSParams{Entry: 0, NSSA: 2, OSSA: 5}); err != nil {
		t.Fatal(err)
	}
	for lin := PageNum(5); lin < 7; lin++ {
		if err := m.EADD(base+FrameIndex(1+lin), eid, lin, PermR|PermW, nil); err != nil {
			t.Fatal(err)
		}
	}
	signer, err := tcb.NewSigningIdentity()
	if err != nil {
		t.Fatal(err)
	}
	mr := mustMeasurement(t, m, eid)
	if err := m.EINIT(eid, SignEnclave(signer, mr)); err != nil {
		t.Fatal(err)
	}
	return eid, tcsLin
}

// mustMeasurement peeks the running measurement (white-box: same package).
func mustMeasurement(t testing.TB, m *Machine, eid EnclaveID) [32]byte {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.enclaves[eid]
	var mr [32]byte
	copy(mr[:], e.measure.Sum(nil))
	return mr
}

func newTestMachine(t testing.TB, cfg Config) *Machine {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLifecycleAndEENTER(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, tcsLin := buildTestEnclave(t, m, &testProgram{hash: 1})
	lp := m.NewLP()

	res, err := m.EENTER(lp, eid, tcsLin, []uint64{tpExit, 1234}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExitEExit || res.Regs[0] != 1234 {
		t.Fatalf("EENTER result = %+v", res)
	}
}

func TestEENTERChecks(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, tcsLin := buildTestEnclave(t, m, &testProgram{hash: 1})
	lp := m.NewLP()

	if _, err := m.EENTER(lp, eid+99, tcsLin, nil, nil); !errors.Is(err, ErrNoSuchEnclave) {
		t.Fatalf("bad eid: %v", err)
	}
	if _, err := m.EENTER(lp, eid, 0, nil, nil); !errors.Is(err, ErrNotTCS) {
		t.Fatalf("REG page as TCS: %v", err)
	}
	if _, err := m.ERESUME(lp, eid, tcsLin, nil); !errors.Is(err, ErrCSSAUnderflow) {
		t.Fatalf("ERESUME at CSSA 0: %v", err)
	}
}

func TestUninitializedEnclaveRefusesEntry(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, err := m.ECREATE(0, &testProgram{}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EADDTCS(1, eid, 4, TCSParams{Entry: 0, NSSA: 2, OSSA: 5}); err != nil {
		t.Fatal(err)
	}
	lp := m.NewLP()
	if _, err := m.EENTER(lp, eid, 4, nil, nil); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("entry before EINIT: %v", err)
	}
}

func TestAEXAndERESUME(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, tcsLin := buildTestEnclave(t, m, &testProgram{hash: 1})
	lp := m.NewLP()

	// Counting program interrupted mid-way must resume exactly.
	const target = 100000
	done := make(chan EnterResult, 1)
	go func() {
		res, err := m.EENTER(lp, eid, tcsLin, []uint64{tpCount, target}, nil)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	lp.Interrupt()
	res := <-done
	if res.Kind != ExitAEX {
		// It may legitimately have finished before the interrupt landed,
		// but with 100k steps that would itself be suspicious.
		t.Fatalf("expected AEX, got %+v", res)
	}
	// Registers are scrubbed on AEX.
	if res.Regs != ([NumRegs]uint64{}) {
		t.Fatalf("AEX leaked registers: %v", res.Regs)
	}
	// TCS is now inactive and CSSA = 1: a second ERESUME-capable state.
	res2, err := m.ERESUME(lp, eid, tcsLin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Kind != ExitEExit || res2.Regs[0] != target {
		t.Fatalf("resumed count = %+v, want %d", res2, target)
	}
}

func TestCSSAVisibleOnlyViaEENTERRax(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, tcsLin := buildTestEnclave(t, m, &testProgram{hash: 1})
	lp := m.NewLP()

	// Fresh entry sees CSSA 0.
	res, err := m.EENTER(lp, eid, tcsLin, []uint64{tpReadCSSA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[0] != 0 {
		t.Fatalf("entry CSSA = %d, want 0", res.Regs[0])
	}
	// Force an AEX: entry with pending interrupt saves the context before
	// any step runs.
	lp.Interrupt()
	res, err = m.EENTER(lp, eid, tcsLin, []uint64{tpSpin}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExitAEX {
		t.Fatalf("expected immediate AEX, got %+v", res)
	}
	// Handler-style re-entry now reports CSSA 1 in rax.
	res, err = m.EENTER(lp, eid, tcsLin, []uint64{tpReadCSSA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[0] != 1 {
		t.Fatalf("nested entry CSSA = %d, want 1", res.Regs[0])
	}
}

func TestCSSAOverflow(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, tcsLin := buildTestEnclave(t, m, &testProgram{hash: 1})
	lp := m.NewLP()
	// NSSA = 2: two interrupted frames fill the SSA.
	for i := 0; i < 2; i++ {
		lp.Interrupt()
		res, err := m.EENTER(lp, eid, tcsLin, []uint64{tpSpin}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != ExitAEX {
			t.Fatal("expected AEX")
		}
	}
	if _, err := m.EENTER(lp, eid, tcsLin, []uint64{tpExit}, nil); !errors.Is(err, ErrCSSAOverflow) {
		t.Fatalf("entry at CSSA==NSSA: %v", err)
	}
}

func TestTCSExclusivity(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, tcsLin := buildTestEnclave(t, m, &testProgram{hash: 1})
	lp1, lp2 := m.NewLP(), m.NewLP()

	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		close(started)
		_, _ = m.EENTER(lp1, eid, tcsLin, []uint64{tpSpin}, nil)
		close(release)
	}()
	<-started
	// Busy-wait until the TCS is observed active, then a second entry on
	// another LP must fail.
	for {
		_, err := m.EENTER(lp2, eid, tcsLin, []uint64{tpExit}, nil)
		if errors.Is(err, ErrTCSActive) {
			break
		}
		if err == nil {
			t.Fatal("two LPs entered one TCS concurrently")
		}
	}
	lp1.Interrupt()
	<-release
}

func TestEnclaveMemoryIsolation(t *testing.T) {
	m := newTestMachine(t, Config{})
	progA := &testProgram{hash: 0xa}
	progB := &testProgram{hash: 0xb}
	eidA, tcsA := buildTestEnclave(t, m, progA)
	// Enclave B occupies different frames.
	eidB, err := m.ECREATE(20, progB, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for lin := PageNum(0); lin < 4; lin++ {
		if err := m.EADD(FrameIndex(21+lin), eidB, lin, PermR|PermW, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.EADDTCS(25, eidB, 4, TCSParams{Entry: 0, NSSA: 2, OSSA: 5}); err != nil {
		t.Fatal(err)
	}
	for lin := PageNum(5); lin < 7; lin++ {
		if err := m.EADD(FrameIndex(21+lin), eidB, lin, PermR|PermW, nil); err != nil {
			t.Fatal(err)
		}
	}
	signer, _ := tcb.NewSigningIdentity()
	if err := m.EINIT(eidB, SignEnclave(signer, mustMeasurement(t, m, eidB))); err != nil {
		t.Fatal(err)
	}

	lp := m.NewLP()
	// A stores a secret at its page 1.
	if _, err := m.EENTER(lp, eidA, tcsA, []uint64{tpStore, Address(1, 0), 0xdeadbeef}, nil); err != nil {
		t.Fatal(err)
	}
	// B reads ITS page 1: must see zero, not A's secret (separate EPC
	// frames, hardware-checked ownership).
	res, err := m.EENTER(lp, eidB, 4, []uint64{tpLoad, Address(1, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[0] == 0xdeadbeef {
		t.Fatal("enclave B read enclave A's memory")
	}
}

func TestTCSPageInaccessibleToEnclave(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, tcsLin := buildTestEnclave(t, m, &testProgram{hash: 1})
	lp := m.NewLP()
	res, err := m.EENTER(lp, eid, tcsLin, []uint64{tpTouchTCS, Address(tcsLin, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[0] != 1 {
		t.Fatal("enclave read its own TCS page; CSSA would be software-visible")
	}
}

func TestAbortKillsThreadOnly(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, tcsLin := buildTestEnclave(t, m, &testProgram{hash: 1})
	lp := m.NewLP()
	if _, err := m.EENTER(lp, eid, tcsLin, []uint64{tpAbort}, nil); !errors.Is(err, ErrEnclaveCrashed) {
		t.Fatalf("abort: %v", err)
	}
	// The TCS is usable again.
	if _, err := m.EENTER(lp, eid, tcsLin, []uint64{tpExit, 7}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEREMOVERules(t *testing.T) {
	m := newTestMachine(t, Config{})
	eid, _ := buildTestEnclave(t, m, &testProgram{hash: 1})
	// SECS (frame 0) cannot go while children exist.
	if err := m.EREMOVE(0); !errors.Is(err, ErrChildrenPresent) {
		t.Fatalf("SECS remove with children: %v", err)
	}
	for f := FrameIndex(1); f <= 7; f++ {
		if err := m.EREMOVE(f); err != nil {
			t.Fatalf("remove frame %d: %v", f, err)
		}
	}
	if err := m.EREMOVE(0); err != nil {
		t.Fatalf("SECS remove after children: %v", err)
	}
	if _, err := m.EnclaveMeasurement(eid); !errors.Is(err, ErrNoSuchEnclave) {
		t.Fatal("enclave survived SECS removal")
	}
}

// freeFrames counts the machine's unused EPC frames.
func freeFrames(m *Machine) int {
	n := 0
	for f := 0; f < m.NumFrames(); f++ {
		if m.FrameFree(FrameIndex(f)) {
			n++
		}
	}
	return n
}

// framesOf counts the EPC frames that belong to eid (white-box).
func framesOf(m *Machine, eid EnclaveID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for i := range m.frames {
		if m.frames[i].valid && m.frames[i].eid == eid {
			n++
		}
	}
	return n
}

// TestDestroyEnclaveFreesItsFramesOnly: DestroyEnclave walks the enclave's
// own page table, not the EPC. With two of its pages evicted and a second
// enclave and a VA page beside it, destroy must free exactly its SECS and
// resident frames — every frame back to the pre-build count, none left with
// its id — and leave the neighbours alone. While one of its threads runs,
// it must refuse and free nothing.
func TestDestroyEnclaveFreesItsFramesOnly(t *testing.T) {
	m := newTestMachine(t, Config{EPCFrames: 64})
	prog := &testProgram{hash: 1}
	other, otherTCS := buildTestEnclaveAt(t, m, prog, 0)
	const va = 10
	if err := m.EPA(va); err != nil {
		t.Fatal(err)
	}
	before := freeFrames(m)

	eid, tcsLin := buildTestEnclaveAt(t, m, prog, 20)
	for slot, f := range []FrameIndex{22, 23} { // pages 1 and 2
		if _, err := m.EWB(f, va, slot); err != nil {
			t.Fatal(err)
		}
	}
	if got := framesOf(m, eid); got != 6 {
		t.Fatalf("built enclave holds %d frames, want 6 (SECS, 4 resident REG, TCS)", got)
	}

	lp, probe := m.NewLP(), m.NewLP()
	spun := make(chan error, 1)
	go func() {
		for {
			// The probe below may hold the TCS for a moment: retry.
			_, err := m.EENTER(lp, eid, tcsLin, []uint64{tpSpin}, nil)
			if !errors.Is(err, ErrTCSActive) {
				spun <- err
				return
			}
		}
	}()
	for {
		_, err := m.EENTER(probe, eid, tcsLin, []uint64{tpExit}, nil)
		if errors.Is(err, ErrTCSActive) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DestroyEnclave(eid); !errors.Is(err, ErrTCSActive) {
		t.Fatalf("destroy with a running thread: %v, want ErrTCSActive", err)
	}
	if got, free := framesOf(m, eid), freeFrames(m); got != 6 || free != before-6 {
		t.Fatalf("refused destroy left %d frames and %d free, want 6 and %d", got, free, before-6)
	}
	lp.Interrupt()
	if err := <-spun; err != nil {
		t.Fatal(err)
	}

	if err := m.DestroyEnclave(eid); err != nil {
		t.Fatal(err)
	}
	if got := framesOf(m, eid); got != 0 {
		t.Fatalf("%d frames still carry the destroyed enclave's id", got)
	}
	if free := freeFrames(m); free != before {
		t.Fatalf("%d frames free after destroy, want the pre-build %d", free, before)
	}
	if _, err := m.EnclaveMeasurement(eid); !errors.Is(err, ErrNoSuchEnclave) {
		t.Fatalf("destroyed enclave still known: %v", err)
	}
	if m.FrameFree(va) {
		t.Fatal("destroy freed the VA page")
	}
	if got := framesOf(m, other); got != 8 {
		t.Fatalf("neighbour holds %d frames after the destroy, want 8", got)
	}
	if _, err := m.EENTER(probe, other, otherTCS, []uint64{tpExit}, nil); err != nil {
		t.Fatalf("neighbour after the destroy: %v", err)
	}
}

// BenchmarkDestroyEnclave tears down a counter-sized enclave (21 pages) on
// a 16 384-frame machine, the EPC of a hostd daemon.
func BenchmarkDestroyEnclave(b *testing.B) {
	m := newTestMachine(b, Config{EPCFrames: 16384})
	prog := &testProgram{hash: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eid, err := m.ECREATE(0, prog, 32, 2)
		if err != nil {
			b.Fatal(err)
		}
		for lin := PageNum(0); lin < 20; lin++ {
			if err := m.EADD(FrameIndex(1+lin), eid, lin, PermR|PermW, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.EADDTCS(21, eid, 20, TCSParams{Entry: 0, NSSA: 2, OSSA: 0}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.DestroyEnclave(eid); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMeasurementSensitivity(t *testing.T) {
	build := func(hash byte, content byte) [32]byte {
		m := newTestMachine(t, Config{})
		prog := &testProgram{hash: hash}
		eid, err := m.ECREATE(0, prog, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		page := &Page{}
		page[0] = content
		if err := m.EADD(1, eid, 0, PermR|PermW, page); err != nil {
			t.Fatal(err)
		}
		return mustMeasurement(t, m, eid)
	}
	base := build(1, 0)
	if build(1, 0) != base {
		t.Fatal("measurement not deterministic")
	}
	if build(2, 0) == base {
		t.Fatal("measurement ignores code identity")
	}
	if build(1, 9) == base {
		t.Fatal("measurement ignores page contents")
	}
}

func TestEINITRejectsBadSignature(t *testing.T) {
	m := newTestMachine(t, Config{})
	prog := &testProgram{hash: 1}
	eid, err := m.ECREATE(0, prog, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	signer, _ := tcb.NewSigningIdentity()
	mr := mustMeasurement(t, m, eid)
	ss := SignEnclave(signer, mr)
	ss.Sig[0] ^= 1
	if err := m.EINIT(eid, ss); !errors.Is(err, ErrSigstruct) {
		t.Fatalf("EINIT with bad signature: %v", err)
	}
	// Wrong measurement also rejected.
	ss2 := SignEnclave(signer, [32]byte{1, 2, 3})
	if err := m.EINIT(eid, ss2); !errors.Is(err, ErrSigstruct) {
		t.Fatalf("EINIT with wrong measurement: %v", err)
	}
}

// TestEINITSigStructSet: a machine verifies a SIGSTRUCT's signature once
// and remembers only SIGSTRUCTs that verified, keyed by all their bytes. A
// refused SIGSTRUCT does not keep the good one out; once the good one
// verified, the same signer and measurement with one signature bit flipped
// is still refused; and filling the set past its bound keeps every verdict
// right. Last, enclaves of one image initialise concurrently against the
// set, which is checked outside the machine lock.
func TestEINITSigStructSet(t *testing.T) {
	m := newTestMachine(t, Config{})
	prog := &testProgram{hash: 1}
	next := FrameIndex(0)
	create := func() (EnclaveID, [32]byte) {
		t.Helper()
		eid, err := m.ECREATE(next, prog, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		next++
		return eid, mustMeasurement(t, m, eid)
	}
	held := func() int {
		m.sigMu.Lock()
		defer m.sigMu.Unlock()
		return len(m.verifiedSigs)
	}
	signer, err := tcb.NewSigningIdentity()
	if err != nil {
		t.Fatal(err)
	}
	first, mr := create()
	good := SignEnclave(signer, mr)
	flipped := func(bit int) SigStruct {
		ss := good
		ss.Sig[bit/8] ^= 1 << (bit % 8)
		return ss
	}

	if err := m.EINIT(first, flipped(0)); !errors.Is(err, ErrSigstruct) {
		t.Fatalf("EINIT with a flipped signature bit on a fresh machine: %v", err)
	}
	if n := held(); n != 0 {
		t.Fatalf("a refused SIGSTRUCT left %d entries in the set", n)
	}
	if err := m.EINIT(first, good); err != nil {
		t.Fatalf("EINIT with the good SIGSTRUCT after a bad one: %v", err)
	}

	second, mr2 := create()
	if mr2 != mr {
		t.Fatal("two enclaves of one image measure differently")
	}
	for _, bit := range []int{0, 255, 511} {
		if err := m.EINIT(second, flipped(bit)); !errors.Is(err, ErrSigstruct) {
			t.Fatalf("EINIT with signature bit %d flipped after the good SIGSTRUCT verified: %v", bit, err)
		}
	}
	if err := m.EINIT(second, good); err != nil {
		t.Fatalf("EINIT of a second enclave of the image: %v", err)
	}

	// SIGSTRUCTs that verify but name other measurements fill the set;
	// each is refused for its measurement.
	third, _ := create()
	for i := 0; i < 2*maxVerifiedSigs+1; i++ {
		other := SignEnclave(signer, [32]byte{byte(i), byte(i >> 8), 0xaa})
		if err := m.EINIT(third, other); !errors.Is(err, ErrSigstruct) {
			t.Fatalf("EINIT with SIGSTRUCT %d of another measurement: %v", i, err)
		}
		if n := held(); n > maxVerifiedSigs {
			t.Fatalf("the set holds %d SIGSTRUCTs, bound %d", n, maxVerifiedSigs)
		}
	}
	if err := m.EINIT(third, flipped(100)); !errors.Is(err, ErrSigstruct) {
		t.Fatalf("EINIT with a flipped signature bit after the set overflowed: %v", err)
	}
	if err := m.EINIT(third, good); err != nil {
		t.Fatalf("EINIT with the good SIGSTRUCT after the set overflowed: %v", err)
	}

	eids := make([]EnclaveID, 8)
	for i := range eids {
		eids[i], _ = create()
	}
	errs := make(chan error, len(eids))
	for i, eid := range eids {
		ss := good
		if i%2 == 1 {
			ss = flipped(i)
		}
		go func() { errs <- m.EINIT(eid, ss) }()
	}
	refused := 0
	for range eids {
		if err := <-errs; errors.Is(err, ErrSigstruct) {
			refused++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if refused != len(eids)/2 {
		t.Fatalf("concurrent EINITs refused %d of %d SIGSTRUCTs, want the %d flipped ones", refused, len(eids), len(eids)/2)
	}
}

func TestSealKeyIsMachineBound(t *testing.T) {
	m1 := newTestMachine(t, Config{Name: "m1"})
	m2 := newTestMachine(t, Config{Name: "m2"})
	prog := &testProgram{hash: 1}
	eid1, tcs1 := buildTestEnclave(t, m1, prog)
	eid2, tcs2 := buildTestEnclave(t, m2, prog)

	getKey := func(m *Machine, eid EnclaveID, tcsLin PageNum) []byte {
		lp := m.NewLP()
		if _, err := m.EENTER(lp, eid, tcsLin, []uint64{tpGetKey, Address(0, 0)}, nil); err != nil {
			t.Fatal(err)
		}
		// Read the key back through trusted code.
		res, err := m.EENTER(lp, eid, tcsLin, []uint64{tpLoad, Address(0, 0)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(res.Regs[0] >> (8 * i))
		}
		return b
	}
	k1 := getKey(m1, eid1, tcs1)
	k2 := getKey(m2, eid2, tcs2)
	if bytes.Equal(k1, k2) {
		t.Fatal("identical enclaves derived identical seal keys on different machines")
	}
}
