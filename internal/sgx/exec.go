package sgx

import (
	"crypto/rand"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
)

// LP is a logical processor. Untrusted software (the guest OS scheduler)
// binds a thread to an LP and enters enclaves through it; interrupts are
// injected per LP and become AEX events at the next step boundary.
type LP struct {
	m         *Machine
	id        int
	interrupt atomic.Bool
}

var lpCounter atomic.Int64

// NewLP creates a logical processor on the machine.
func (m *Machine) NewLP() *LP {
	return &LP{m: m, id: int(lpCounter.Add(1))}
}

// Interrupt marks a pending interrupt; the running enclave thread (if any)
// will take an AEX at its next step boundary, and a subsequent EENTER will
// AEX immediately before executing any trusted code (used by the restore
// path to rebuild CSSA).
func (lp *LP) Interrupt() { lp.interrupt.Store(true) }

// takeInterrupt consumes a pending interrupt.
func (lp *LP) takeInterrupt() bool { return lp.interrupt.CompareAndSwap(true, false) }

// ExitKind says how control returned from EENTER/ERESUME.
type ExitKind int

// Exit kinds.
const (
	// ExitEExit: the enclave thread left voluntarily via EEXIT.
	ExitEExit ExitKind = iota + 1
	// ExitAEX: an asynchronous exit; the context was saved to the SSA and
	// CSSA was incremented. Registers visible to the caller are scrubbed.
	ExitAEX
)

// EnterResult is what the untrusted caller observes after EENTER/ERESUME.
type EnterResult struct {
	Kind ExitKind
	// Regs carries the enclave's EEXIT register values; on AEX it is
	// zeroed (the hardware scrubs state).
	Regs [NumRegs]uint64
	// Stepped reports whether the entry ran at least one trusted step; an
	// interrupt pending at entry makes it AEX before any. A simulator
	// observation: the runtime uses it to tell when an entry shows in the
	// enclave's own state.
	Stepped bool
}

// OutsideMemory is untrusted application memory the enclave may access
// (real enclaves can read/write their host process's address space). The
// untrusted runtime passes it to EENTER; nil means no outside access.
type OutsideMemory interface {
	Load(off uint64, b []byte) error
	Store(off uint64, b []byte) error
	Size() uint64
}

// Env gives trusted step functions hardware-mediated access to their
// enclave: memory loads/stores with EPCM checks, key derivation (EGETKEY),
// local attestation (EREPORT), randomness (RDRAND) and untrusted memory.
type Env struct {
	m       *Machine
	e       *enclaveControl
	lp      *LP
	outside OutsideMemory
}

// EENTER enters the enclave at the TCS located at linear page tcsLin. The
// args populate registers R0..R5; R7 receives the current CSSA (the
// architectural EENTER rax), which is what the SDK entry stub records for
// the paper's in-enclave CSSA tracking.
func (m *Machine) EENTER(lp *LP, eid EnclaveID, tcsLin PageNum, args []uint64, outside OutsideMemory) (EnterResult, error) {
	m.mu.Lock()
	e, t, err := m.enterChecksLocked(eid, tcsLin)
	if err != nil {
		m.mu.Unlock()
		return EnterResult{}, err
	}
	if t.cssa >= t.params.NSSA {
		m.mu.Unlock()
		return EnterResult{}, ErrCSSAOverflow
	}
	ctx := Context{Entry: t.params.Entry}
	for i := 0; i < len(args) && i < 6; i++ {
		ctx.R[i] = args[i]
	}
	ctx.R[RegCSSA] = uint64(t.cssa)
	t.active = true
	m.mu.Unlock()
	m.eenterCount.Add(1)
	return m.run(lp, e, t, tcsLin, &ctx, outside)
}

// ERESUME pops the most recent SSA frame and resumes the interrupted
// context (CSSA decreases by one).
func (m *Machine) ERESUME(lp *LP, eid EnclaveID, tcsLin PageNum, outside OutsideMemory) (EnterResult, error) {
	m.mu.Lock()
	e, t, err := m.enterChecksLocked(eid, tcsLin)
	if err != nil {
		m.mu.Unlock()
		return EnterResult{}, err
	}
	if t.cssa == 0 {
		m.mu.Unlock()
		return EnterResult{}, ErrCSSAUnderflow
	}
	ssaLin := t.params.OSSA + PageNum(t.cssa-1)
	fr, ok := m.residentLocked(e, ssaLin)
	if !ok {
		// The SSA frame was paged out; fault it back in.
		m.mu.Unlock()
		if err := m.handleFault(e.id, ssaLin); err != nil {
			return EnterResult{}, err
		}
		m.mu.Lock()
		fr, ok = m.residentLocked(e, ssaLin)
		if !ok {
			m.mu.Unlock()
			return EnterResult{}, ErrPageNotResident
		}
	}
	var ctx Context
	ctx.unmarshal(fr.data[:contextBytes])
	t.cssa--
	t.active = true
	m.mu.Unlock()
	m.eresumeCount.Add(1)
	return m.run(lp, e, t, tcsLin, &ctx, outside)
}

func (m *Machine) enterChecksLocked(eid EnclaveID, tcsLin PageNum) (*enclaveControl, *tcs, error) {
	e, ok := m.enclaves[eid]
	if !ok {
		return nil, nil, ErrNoSuchEnclave
	}
	if !e.inited {
		return nil, nil, ErrNotInitialized
	}
	if e.migFrozen {
		return nil, nil, ErrEnclaveFrozen
	}
	fr, ok := m.residentLocked(e, tcsLin)
	if !ok {
		return nil, nil, ErrPageNotResident
	}
	if fr.ptype != PTTcs {
		return nil, nil, ErrNotTCS
	}
	if fr.tcs.active {
		return nil, nil, ErrTCSActive
	}
	return e, fr.tcs, nil
}

// run drives the step loop until EEXIT, AEX or abort. The machine lock is
// NOT held while trusted code steps; Env accessors lock per access, which
// doubles as a crude stand-in for MEE access latency.
func (m *Machine) run(lp *LP, e *enclaveControl, t *tcs, tcsLin PageNum, ctx *Context, outside OutsideMemory) (EnterResult, error) {
	env := &Env{m: m, e: e, lp: lp, outside: outside}
	steps := 0
	for {
		if steps%1021 == 1020 {
			// Scheduling point: without it a tight trusted loop can starve
			// other logical processors (goroutines) for a whole Go async
			// preemption period on small hosts. The interval is an odd
			// prime so yields do not phase-lock with small even-length
			// loops in trusted code.
			runtime.Gosched()
		}
		if lp.takeInterrupt() || (m.quantum > 0 && steps >= m.quantum) {
			if err := m.aex(e, t, ctx); err != nil {
				m.deactivate(t)
				return EnterResult{}, err
			}
			return EnterResult{Kind: ExitAEX, Stepped: steps > 0}, nil
		}
		status := stepSafely(e.prog, env, ctx)
		steps++
		switch status {
		case StatusRunning:
			// keep stepping
		case StatusExit:
			m.deactivate(t)
			return EnterResult{Kind: ExitEExit, Regs: ctx.R, Stepped: true}, nil
		case StatusAbort:
			m.deactivate(t)
			return EnterResult{}, ErrEnclaveCrashed
		default:
			m.deactivate(t)
			return EnterResult{}, fmt.Errorf("sgx: program returned invalid status %d", status)
		}
	}
}

// stepSafely converts a panicking step function into StatusAbort so a buggy
// enclave kills only its own thread, not the simulator.
func stepSafely(p Program, env *Env, ctx *Context) (st Status) {
	defer func() {
		if r := recover(); r != nil {
			st = StatusAbort
		}
	}()
	return p.Step(env, ctx)
}

func (m *Machine) deactivate(t *tcs) {
	m.mu.Lock()
	t.active = false
	m.mu.Unlock()
}

// aex saves ctx into SSA[CSSA], increments CSSA and deactivates the thread.
func (m *Machine) aex(e *enclaveControl, t *tcs, ctx *Context) error {
	m.aexCount.Add(1)
	ssaLin := t.params.OSSA + PageNum(t.cssa)
	// Ensure the SSA frame is resident (fault it in if the driver evicted it).
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		fr, ok := m.residentLocked(e, ssaLin)
		if ok {
			ctx.marshal(fr.data[:contextBytes])
			t.cssa++
			t.active = false
			m.mu.Unlock()
			return nil
		}
		m.mu.Unlock()
		if attempt > 0 {
			return ErrPageNotResident
		}
		if err := m.handleFault(e.id, ssaLin); err != nil {
			return err
		}
	}
}

// handleFault invokes the OS page-in handler for a non-resident page.
func (m *Machine) handleFault(eid EnclaveID, lin PageNum) error {
	m.mu.RLock()
	h := m.faultHandler
	m.mu.RUnlock()
	if h == nil {
		return ErrPageNotResident
	}
	if err := h(eid, lin); err != nil {
		return fmt.Errorf("sgx: page fault on enclave %d page %d: %w", eid, lin, err)
	}
	return nil
}

// --- Env: the trusted-side hardware interface ---

// Load copies enclave memory at addr into buf, enforcing EPCM permissions.
// Non-resident pages are transparently faulted in via the OS handler.
func (env *Env) Load(addr uint64, buf []byte) error {
	return env.access(addr, buf, false)
}

// Store copies buf into enclave memory at addr.
func (env *Env) Store(addr uint64, buf []byte) error {
	return env.access(addr, buf, true)
}

// Load64 reads a little-endian uint64 at addr.
func (env *Env) Load64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := env.Load(addr, b[:]); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

// Store64 writes a little-endian uint64 at addr.
func (env *Env) Store64(addr uint64, v uint64) error {
	var b [8]byte
	put64(b[:], v)
	return env.Store(addr, b[:])
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func (env *Env) access(addr uint64, buf []byte, write bool) error {
	remaining := buf
	for len(remaining) > 0 {
		lin, off := SplitAddress(addr)
		if int(lin) >= env.e.sizePages {
			return ErrOutOfRange
		}
		n := PageSize - int(off)
		if n > len(remaining) {
			n = len(remaining)
		}
		if err := env.accessPage(lin, off, remaining[:n], write); err != nil {
			return err
		}
		remaining = remaining[n:]
		addr += uint64(n)
	}
	return nil
}

func (env *Env) accessPage(lin PageNum, off uint32, chunk []byte, write bool) error {
	// Reads share the lock (concurrent readers are fine); writes take it
	// exclusively so two enclave threads racing on one page stay
	// well-defined at page granularity, like cache-coherent hardware.
	lock := func() {
		if write {
			env.m.mu.Lock()
		} else {
			env.m.mu.RLock()
		}
	}
	unlock := func() {
		if write {
			env.m.mu.Unlock()
		} else {
			env.m.mu.RUnlock()
		}
	}
	for attempt := 0; ; attempt++ {
		lock()
		fr, ok := env.m.residentLocked(env.e, lin)
		if ok {
			if fr.ptype != PTReg {
				unlock()
				// TCS and VA pages are inaccessible even to the enclave.
				return ErrPermission
			}
			need := PermR
			if write {
				need = PermR | PermW
			}
			if !fr.perm.Has(need) {
				unlock()
				return ErrPermission
			}
			if write {
				copy(fr.data[off:int(off)+len(chunk)], chunk)
			} else {
				copy(chunk, fr.data[off:int(off)+len(chunk)])
			}
			unlock()
			return nil
		}
		unlock()
		if attempt > 0 {
			return ErrPageNotResident
		}
		if err := env.m.handleFault(env.e.id, lin); err != nil {
			return err
		}
	}
}

// OutsideLoad reads untrusted host memory (ocall argument passing, dumping
// checkpoints out of the enclave, ...).
func (env *Env) OutsideLoad(off uint64, b []byte) error {
	if env.outside == nil {
		return ErrNoOutsideMemory
	}
	return env.outside.Load(off, b)
}

// OutsideStore writes untrusted host memory.
func (env *Env) OutsideStore(off uint64, b []byte) error {
	if env.outside == nil {
		return ErrNoOutsideMemory
	}
	return env.outside.Store(off, b)
}

// OutsideSize returns the size of the attached untrusted region (0 if none).
func (env *Env) OutsideSize() uint64 {
	if env.outside == nil {
		return 0
	}
	return env.outside.Size()
}

// ReadRandom fills b with hardware randomness (RDRAND).
func (env *Env) ReadRandom(b []byte) error {
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return fmt.Errorf("sgx: rdrand: %w", err)
	}
	return nil
}

// Measurement returns the enclave's own MRENCLAVE (readable by the enclave
// via EREPORT on hardware).
func (env *Env) Measurement() [32]byte { return env.e.mrenclave }

// Signer returns the enclave's MRSIGNER.
func (env *Env) Signer() [32]byte { return env.e.mrsigner }
