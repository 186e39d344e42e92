package enclave

import (
	"crypto/subtle"
	"sync"
	"time"

	"repro/internal/sgx"
	"repro/internal/tcb"
)

// program is the sgx.Program the SDK builds around an App: it owns the entry
// and exit stubs, the two-phase-checkpointing flags, the in-enclave CSSA
// bookkeeping and the control-thread operations. Application code never sees
// any of it (paper Sec. VI-C).
type program struct {
	app      *App
	layout   Layout
	codeHash [32]byte
	dh       dhMemo
}

var _ sgx.Program = (*program)(nil)

func newProgram(app *App) *program {
	return &program{app: app, layout: app.Layout(), codeHash: app.codeHash()}
}

// dhMemo is a one-slot memo of the X25519 key pair last built from a seed.
// The seed itself lives in the control page (offDHSeed); the memo only
// spares the call that next loads it there a second scalar multiplication
// for the key pair the call that stored it had just built (DESIGN.md §1).
type dhMemo struct {
	mu   sync.Mutex
	seed [tcb.SeedSize]byte // guarded by mu
	kp   *tcb.DHKeyPair     // guarded by mu
}

// build builds seed's key pair and remembers it.
func (m *dhMemo) build(seed [tcb.SeedSize]byte) (*tcb.DHKeyPair, error) {
	kp, err := tcb.NewDHKeyPairFromSeed(seed)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.seed, m.kp = seed, kp
	m.mu.Unlock()
	return kp, nil
}

// take returns seed's key pair: the remembered one, dropped from the memo,
// if the memo holds exactly this seed; one built afresh otherwise.
func (m *dhMemo) take(seed [tcb.SeedSize]byte) (*tcb.DHKeyPair, error) {
	m.mu.Lock()
	kp := m.kp
	hit := kp != nil && subtle.ConstantTimeCompare(m.seed[:], seed[:]) == 1
	if hit {
		m.seed, m.kp = [tcb.SeedSize]byte{}, nil
	}
	m.mu.Unlock()
	if hit {
		return kp, nil
	}
	return tcb.NewDHKeyPairFromSeed(seed)
}

// forget empties the memo.
func (m *dhMemo) forget() {
	m.mu.Lock()
	m.seed, m.kp = [tcb.SeedSize]byte{}, nil
	m.mu.Unlock()
}

// CodeHash implements sgx.Program.
func (p *program) CodeHash() [32]byte { return p.codeHash }

// SDK program-counter phases. Application steps run with bit 63 set; the
// ecall selector lives in bits 62..32 and the app-relative PC in bits 31..0.
const (
	pcEntry    = 0
	pcSpin     = 1
	pcDispatch = 2

	pcAppFlag = uint64(1) << 63
)

func appModePC(sel uint64, appPC uint64) uint64 {
	return pcAppFlag | (sel&0x7fffffff)<<32 | (appPC & 0xffffffff)
}

func splitAppPC(pc uint64) (sel uint64, appPC uint64) {
	return (pc >> 32) & 0x7fffffff, pc & 0xffffffff
}

// Control-page scalar accessors. Failures surface as StatusAbort through the
// panic recovery in the simulator (they indicate a driver evicting pages it
// must not, i.e. a DoS, not a correctness issue).
func ld64(env *sgx.Env, off uint64) uint64 {
	v, err := env.Load64(off)
	if err != nil {
		panic(err)
	}
	return v
}

func st64(env *sgx.Env, off uint64, v uint64) {
	if err := env.Store64(off, v); err != nil {
		panic(err)
	}
}

func threadSlot(tid int) uint64 {
	return offThreadTable + uint64(tid)*thrStride
}

// Step implements sgx.Program: the single trusted instruction stream,
// dispatched on the SDK phase encoded in ctx.PC.
func (p *program) Step(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	switch {
	case ctx.PC&pcAppFlag != 0:
		return p.stepApp(env, ctx)
	case ctx.PC == pcEntry:
		return p.stepEntry(env, ctx)
	case ctx.PC == pcSpin:
		return p.stepSpin(env, ctx)
	case ctx.PC == pcDispatch:
		return p.dispatch(env, ctx)
	default:
		return p.exit(env, ctx, codeErr, errBadSelector)
	}
}

// stepEntry is the entry stub (paper Fig. 4 left): save the local flag, set
// it to busy, record CSSAEENTER (the EENTER rax value delivered in R7),
// check the destroyed state and the global flag, then dispatch or spin.
func (p *program) stepEntry(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	tid := int(ctx.Entry)
	if tid < 0 || tid >= p.layout.Threads {
		// Unreachable via hardware: OENTRY is measured per TCS.
		return sgx.StatusAbort
	}
	if p.app.DisableMigrationStubs {
		ctx.PC = pcDispatch
		return p.dispatch(env, ctx)
	}
	slot := threadSlot(tid)
	prev := ld64(env, slot+thrLocalFlag)
	st64(env, slot+thrLocalFlag, flagBusy)
	st64(env, slot+thrCSSAEnter, ctx.R[sgx.RegCSSA])
	st64(env, slot+thrEpoch, ld64(env, slot+thrEpoch)+1)
	ctx.R[6] = prev

	if ld64(env, offState) == stDestroyed {
		return p.exit(env, ctx, codeDead, 0)
	}
	if tid != 0 && ld64(env, offGlobalFlag) == 1 {
		st64(env, slot+thrSpinPrev, prev)
		st64(env, slot+thrLocalFlag, flagSpin)
		ctx.PC = pcSpin
		return sgx.StatusRunning
	}
	ctx.PC = pcDispatch
	return p.dispatch(env, ctx)
}

// stepSpin is the spin region (paper Fig. 4): the thread performs no memory
// writes and keeps checking the global flag; the enclave is quiescent once
// every worker is here (or free). Interrupts bounce the thread out via AEX
// and ERESUME brings it back, exactly like a spinning x86 thread.
func (p *program) stepSpin(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) == stDestroyed {
		// Self-destroy: the worker never gets its context back. Reporting
		// codeDead (rather than literally spinning forever) tells the
		// untrusted host the thread is gone; the interrupted computation
		// below this frame remains unreachable either way (P-5).
		return p.exit(env, ctx, codeDead, 0)
	}
	if ld64(env, offGlobalFlag) == 1 {
		// PAUSE-style backoff: a real spinning core would execute PAUSE;
		// in simulation an unthrottled spin loop would starve the control
		// thread doing the actual dump on small hosts.
		time.Sleep(5 * time.Microsecond)
		return sgx.StatusRunning
	}
	tid := int(ctx.Entry)
	st64(env, threadSlot(tid)+thrLocalFlag, flagBusy)
	ctx.PC = pcDispatch
	return p.dispatch(env, ctx)
}

// dispatch routes a (possibly just unspun) entry to its destination.
func (p *program) dispatch(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	sel := ctx.R[0]
	tid := int(ctx.Entry)
	switch {
	case sel < uint64(len(p.app.ECalls)):
		if tid == 0 {
			// The control thread runs only SDK code.
			return p.exit(env, ctx, codeErr, errBadThread)
		}
		ctx.PC = appModePC(sel, 0)
		return sgx.StatusRunning
	case sel == SelHandler:
		// Exception-handler entry after AEX during migration: by the time
		// we got here the entry stub already parked us in the spin region
		// if the global flag was set; reaching dispatch means migration is
		// over (or never was) — hand back to the interrupted context.
		return p.exit(env, ctx, codeResumeMe, 0)
	case sel == SelNop:
		return p.exit(env, ctx, codeDone, 0)
	case sel == SelOCallReturn:
		return p.ocallReturn(env, ctx)
	case sel >= ctlBase:
		if tid != 0 {
			return p.exit(env, ctx, codeErr, errBadThread)
		}
		return p.ctlStep(env, ctx, sel)
	default:
		return p.exit(env, ctx, codeErr, errBadSelector)
	}
}

// stepApp runs one application step with the Call wrapper.
func (p *program) stepApp(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	sel, appPC := splitAppPC(ctx.PC)
	if sel >= uint64(len(p.app.ECalls)) {
		return p.exit(env, ctx, codeErr, errBadSelector)
	}
	call := Call{
		Regs:   &ctx.R,
		PC:     appPC,
		env:    env,
		layout: p.layout,
		app:    p.app,
		tid:    int(ctx.Entry),
	}
	status := p.app.ECalls[sel](&call)
	ctx.PC = appModePC(sel, call.PC)
	switch status {
	case AppRunning:
		return sgx.StatusRunning
	case AppDone:
		return p.exit(env, ctx, codeDone, 0)
	case AppOCall:
		return p.ocallExit(env, ctx, &call, sel)
	default:
		return sgx.StatusAbort
	}
}

// ocallExit parks the ecall continuation in the thread's TLS page and leaves
// the enclave with an ocall request. The continuation lives entirely in
// enclave memory, so an ocall in flight survives a migration of the
// surrounding VM.
func (p *program) ocallExit(env *sgx.Env, ctx *sgx.Context, call *Call, sel uint64) sgx.Status {
	tls := sgx.Address(p.layout.TLSPage(int(ctx.Entry)), 0)
	st64(env, tls+0, sel)
	st64(env, tls+8, call.PC)
	for i := 0; i < 6; i++ {
		st64(env, tls+16+uint64(i)*8, ctx.R[i])
	}
	ctx.R[0] = call.OCallID
	ctx.R[1] = call.OCallArg
	ctx.R[2] = call.OCallLen
	return p.exit(env, ctx, codeOCall, 0)
}

// ocallReturn resumes a parked ecall; EENTER args were
// [SelOCallReturn, result0, result1].
func (p *program) ocallReturn(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	tls := sgx.Address(p.layout.TLSPage(int(ctx.Entry)), 0)
	sel := ld64(env, tls+0)
	appPC := ld64(env, tls+8)
	if sel >= uint64(len(p.app.ECalls)) {
		return p.exit(env, ctx, codeErr, errBadSelector)
	}
	res0, res1 := ctx.R[1], ctx.R[2]
	for i := 0; i < 6; i++ {
		ctx.R[i] = ld64(env, tls+16+uint64(i)*8)
	}
	ctx.R[0] = res0
	ctx.R[1] = res1
	ctx.PC = appModePC(sel, appPC)
	return sgx.StatusRunning
}

// exit is the exit stub: restore the saved local flag and leave with a code
// in R7.
func (p *program) exit(env *sgx.Env, ctx *sgx.Context, code uint64, detail uint64) sgx.Status {
	if !p.app.DisableMigrationStubs {
		tid := int(ctx.Entry)
		if tid >= 0 && tid < p.layout.Threads && code != codeDead {
			st64(env, threadSlot(tid)+thrLocalFlag, ctx.R[6])
		}
	}
	if code == codeErr {
		ctx.R[0] = detail
	}
	ctx.R[6] = 0
	ctx.R[7] = code
	return sgx.StatusExit
}
