package enclave

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epcman"
	"repro/internal/ledger"
	"repro/internal/sgx"
	"repro/internal/tcb"
)

// Runtime errors.
var (
	ErrDestroyed    = errors.New("enclave: enclave self-destroyed")
	ErrWorkerBusy   = errors.New("enclave: worker thread already executing an ecall")
	ErrBadWorker    = errors.New("enclave: no such worker")
	ErrVerifyFailed = errors.New("enclave: in-enclave restore verification refused to resume")
	// ErrMigrating is returned to an ecall issued while a migration is
	// requested (RequestMigration): the runtime enters no worker until the
	// migration ends (EndMigration).
	ErrMigrating = errors.New("enclave: migration requested, no new ecall enters")
	// ErrPaused is returned to an ecall caller whose thread context was
	// parked in the SSA by PauseWorkers (hardware-extension freeze path).
	ErrPaused = errors.New("enclave: worker parked in SSA by PauseWorkers")
)

// EnclaveError is a failure reported by in-enclave SDK code.
type EnclaveError struct {
	Detail uint64
}

func (e *EnclaveError) Error() string {
	names := map[uint64]string{
		errBadSelector:    "bad selector",
		errBadThread:      "bad thread for selector",
		errNotProvisioned: "not provisioned",
		errBadState:       "bad lifecycle state",
		errChannelUsed:    "secure channel already used",
		errAttestFailed:   "attestation failed",
		errBadSignature:   "signature verification failed",
		errDecryptFailed:  "decryption failed",
		errBadCheckpoint:  "bad checkpoint",
		errVerifyCSSA:     "CSSA verification failed",
		errMemory:         "enclave memory access failed",
		errNotQuiescent:   "workers not quiescent",
	}
	if n, ok := names[e.Detail]; ok {
		return fmt.Sprintf("enclave: in-enclave error: %s", n)
	}
	return fmt.Sprintf("enclave: in-enclave error %d", e.Detail)
}

// Shared-region layout: a small request area for protocol messages and a
// large area for checkpoint blobs.
const (
	SharedReqOff  = 0
	SharedReqSize = 64 * 1024
	SharedCkptOff = SharedReqSize

	// SharedDumpLen and SharedDumpReady are where a running dump reports
	// its progress, in the request area: the checkpoint's length, then how
	// many of its leading bytes in the output window are final (u64 LE
	// each). The dump stores the length first and advances the ready count
	// as each leaf is sealed and copied out.
	SharedDumpLen   = SharedReqOff
	SharedDumpReady = SharedReqOff + 8
)

// SharedRegion is untrusted host memory shared with one enclave. It holds
// no bytes until the first store: a store into the request area
// [0, SharedCkptOff) grows what is held to the whole pages it reaches, and
// the checkpoint window after it is allocated whole by the first store
// that reaches it. Loads past what is held read zeros. Protocol messages
// take a few KiB of the request area, and a runtime whose checkpoints
// cross the host in frames instead (core's frameWindow) never stores in
// the window, so never pays for it.
type SharedRegion struct {
	mu   sync.RWMutex
	size uint64
	buf  []byte // guarded by mu; the leading bytes stored so far, whole pages of the request area or all size bytes
}

var _ sgx.OutsideMemory = (*SharedRegion)(nil)

// NewSharedRegion returns an n-byte shared region.
func NewSharedRegion(n int) *SharedRegion {
	return &SharedRegion{size: uint64(n)}
}

// inRange reports whether [off, off+n) lies inside the region.
func (s *SharedRegion) inRange(off uint64, n int) bool {
	return off <= s.size && uint64(n) <= s.size-off
}

// Load implements sgx.OutsideMemory.
func (s *SharedRegion) Load(off uint64, b []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.inRange(off, len(b)) {
		return fmt.Errorf("enclave: shared read out of range")
	}
	n := 0
	if off < uint64(len(s.buf)) {
		n = copy(b, s.buf[off:])
	}
	clear(b[n:])
	return nil
}

// Store implements sgx.OutsideMemory.
func (s *SharedRegion) Store(off uint64, b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inRange(off, len(b)) {
		return fmt.Errorf("enclave: shared write out of range")
	}
	if end := off + uint64(len(b)); end > uint64(len(s.buf)) {
		n := s.size
		if end <= SharedCkptOff {
			n = min(n, (end+sgx.PageSize-1)&^(sgx.PageSize-1))
		}
		grown := make([]byte, n)
		copy(grown, s.buf)
		s.buf = grown
	}
	copy(s.buf[off:], b)
	return nil
}

// Size implements sgx.OutsideMemory.
func (s *SharedRegion) Size() uint64 { return s.size }

// Host bundles the platform pieces the runtime builds enclaves on: the
// machine, the EPC manager (the SGX driver's paging half) and the fault
// dispatcher.
type Host struct {
	Mgr  *epcman.Manager
	Disp *epcman.Dispatcher
}

// NewBareHost sets up a machine-wide host: one manager owning every EPC
// frame. Guest OSes build their own Host over hypervisor-granted frames.
func NewBareHost(m *sgx.Machine) *Host {
	return &Host{
		Mgr:  epcman.NewRange(m, 0, m.NumFrames()),
		Disp: epcman.NewDispatcher(m),
	}
}

// NewConstrainedHost sets up a host whose driver only has `frames` EPC
// frames to work with — used to force eviction pressure (the Fig. 9(a)
// String Sort regime).
func NewConstrainedHost(m *sgx.Machine, frames int) *Host {
	if frames > m.NumFrames() {
		frames = m.NumFrames()
	}
	return &Host{
		Mgr:  epcman.NewRange(m, 0, frames),
		Disp: epcman.NewDispatcher(m),
	}
}

type workerState struct {
	mu sync.Mutex
	// lp is immutable after construction; Interrupt is internally
	// synchronized, so the pause/migrate paths may kick it lock-free.
	lp        *sgx.LP
	inHandler bool // guarded by mu
	// entering is set while an ECall that passed the entry gate has not
	// run a step in the enclave yet, so the thread table does not show it
	// (EntryPending).
	entering atomic.Bool
}

// Runtime is the untrusted "SGX library" hosting one enclave: it built the
// enclave, dispatches ecalls and ocalls, reacts to AEX, and cooperates with
// migration without being trusted by it.
type Runtime struct {
	host        *Host
	m           *sgx.Machine
	app         *App
	layout      Layout
	eid         sgx.EnclaveID
	measurement [32]byte
	shared      sgx.OutsideMemory

	// ctlMu serialises control calls. ctlLP is immutable after
	// construction; Interrupt is internally synchronized, so Destroy may
	// kick it while a control call holds ctlMu.
	ctlMu sync.Mutex
	ctlLP *sgx.LP

	// workers is immutable after construction (written only by
	// BuildSigned/Adopt before the Runtime escapes); the per-worker
	// mutable state lives behind each workerState's own mu.
	workers []*workerState

	migrating atomic.Bool
	paused    atomic.Bool
	dead      atomic.Bool

	// extraFrames holds the SECS + TCS frames (not managed by epcman).
	// Appended only during construction, read by Destroy; immutable in
	// between, so no lock guards it.
	extraFrames []sgx.FrameIndex
}

// Build constructs, measures and initialises an enclave for app on the
// host, signing it with the developer identity.
func Build(host *Host, app *App, signer *tcb.SigningIdentity) (*Runtime, error) {
	return BuildSigned(host, app, sgx.SignEnclave(signer, MeasureApp(app)))
}

// BuildSigned constructs an enclave from an app plus a pre-made SIGSTRUCT —
// the deployment artefact shipped to machines that do not hold the signing
// key (e.g. a migration target rebuilding the image).
func BuildSigned(host *Host, app *App, ss sgx.SigStruct, opts ...BuildOption) (*Runtime, error) {
	if err := app.validate(); err != nil {
		return nil, err
	}
	var bo buildOpts
	for _, o := range opts {
		o(&bo)
	}
	prog := newProgram(app)
	layout := prog.layout
	m := host.Mgr.Machine()

	secs, err := host.Mgr.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("enclave: alloc SECS frame: %w", err)
	}
	eid, err := m.ECREATE(secs, prog, layout.TotalPages(), uint32(layout.NSSA))
	if err != nil {
		host.Mgr.ReturnFrame(secs)
		return nil, fmt.Errorf("enclave: ECREATE: %w", err)
	}
	rt := &Runtime{
		host:        host,
		m:           m,
		app:         app,
		layout:      layout,
		eid:         eid,
		ctlLP:       m.NewLP(),
		extraFrames: []sgx.FrameIndex{secs},
	}
	host.Disp.Register(eid, host.Mgr)

	cleanup := func() {
		_ = m.DestroyEnclave(eid)
		host.Disp.Unregister(eid)
		host.Mgr.ForgetEnclave(eid)
		for _, f := range rt.extraFrames {
			host.Mgr.ReturnFrame(f)
		}
	}

	addReg := func(lin sgx.PageNum, content *sgx.Page, pin bool) error {
		f, err := host.Mgr.AllocFrame()
		if err != nil {
			return err
		}
		if err := m.EADD(f, eid, lin, sgx.PermR|sgx.PermW, content); err != nil {
			host.Mgr.ReturnFrame(f)
			return err
		}
		host.Mgr.NotePage(eid, lin, f)
		if pin {
			host.Mgr.Pin(eid, lin)
		}
		return nil
	}

	if err := rt.addAllPages(addReg); err != nil {
		cleanup()
		return nil, err
	}

	if err := m.EINIT(eid, ss); err != nil {
		cleanup()
		return nil, fmt.Errorf("enclave: EINIT: %w", err)
	}
	rt.measurement = ss.Measurement

	if bo.shared != nil {
		rt.shared = bo.shared
	} else {
		rt.shared = NewSharedRegion(SharedSizeFor(layout))
	}
	rt.workers = make([]*workerState, app.Workers)
	for i := range rt.workers {
		rt.workers[i] = &workerState{lp: m.NewLP()}
	}
	return rt, nil
}

// addAllPages EADDs the enclave pages in canonical order (mirrored by
// MeasureApp).
func (rt *Runtime) addAllPages(addReg func(sgx.PageNum, *sgx.Page, bool) error) error {
	layout, app, m, eid := rt.layout, rt.app, rt.m, rt.eid

	// Page 0: control page with the SDK parameters baked in (measured).
	ctrl := &sgx.Page{}
	binary.LittleEndian.PutUint64(ctrl[offMagic:], controlMagic)
	binary.LittleEndian.PutUint64(ctrl[offNumThread:], uint64(layout.Threads))
	binary.LittleEndian.PutUint64(ctrl[offDataPages:], uint64(layout.DataPages))
	binary.LittleEndian.PutUint64(ctrl[offHeapPages:], uint64(layout.HeapPages))
	binary.LittleEndian.PutUint64(ctrl[offNSSA:], uint64(layout.NSSA))
	if err := addReg(0, ctrl, true); err != nil {
		return err
	}

	// Thread blocks: TCS, SSA frames, TLS.
	for tid := 0; tid < layout.Threads; tid++ {
		f, err := rt.host.Mgr.AllocFrame()
		if err != nil {
			return err
		}
		params := sgx.TCSParams{Entry: uint32(tid), NSSA: uint32(layout.NSSA), OSSA: layout.SSABase(tid)}
		if err := m.EADDTCS(f, eid, layout.TCSPage(tid), params); err != nil {
			rt.host.Mgr.ReturnFrame(f)
			return err
		}
		rt.extraFrames = append(rt.extraFrames, f)
		for s := 0; s < layout.NSSA; s++ {
			if err := addReg(layout.SSABase(tid)+sgx.PageNum(s), nil, true); err != nil {
				return err
			}
		}
		if err := addReg(layout.TLSPage(tid), nil, true); err != nil {
			return err
		}
	}

	// Data region with the measured initial content.
	data := app.InitData
	for i := 0; i < layout.DataPages; i++ {
		var page *sgx.Page
		if len(data) > 0 {
			page = &sgx.Page{}
			n := copy(page[:], data)
			data = data[n:]
		}
		if err := addReg(layout.DataBase()+sgx.PageNum(i), page, false); err != nil {
			return err
		}
	}

	// Heap (zero pages).
	for i := 0; i < layout.HeapPages; i++ {
		if err := addReg(layout.HeapBase()+sgx.PageNum(i), nil, false); err != nil {
			return err
		}
	}
	return nil
}

// MeasureApp computes the MRENCLAVE an SDK build of app produces, without
// touching a machine. It must mirror the hardware measurement sequence; a
// test pins the equivalence.
func MeasureApp(app *App) [32]byte {
	prog := newProgram(app)
	layout := prog.layout
	h := sha256.New()

	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(layout.TotalPages()))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(layout.NSSA))
	ch := prog.CodeHash()
	h.Write([]byte("ECREATE"))
	h.Write(hdr[:])
	h.Write(ch[:])

	extendReg := func(lin sgx.PageNum, content *sgx.Page) {
		pageHash := sgx.ZeroPageHash()
		if content != nil {
			pageHash = sha256.Sum256(content[:])
		}
		var meta [12]byte
		binary.LittleEndian.PutUint32(meta[0:], uint32(lin))
		meta[4] = byte(sgx.PTReg)
		meta[5] = byte(sgx.PermR | sgx.PermW)
		h.Write([]byte("EADD"))
		h.Write(meta[:])
		h.Write(pageHash[:])
	}
	extendTCS := func(lin sgx.PageNum, params sgx.TCSParams) {
		var meta [24]byte
		binary.LittleEndian.PutUint32(meta[0:], uint32(lin))
		meta[4] = byte(sgx.PTTcs)
		binary.LittleEndian.PutUint32(meta[8:], params.Entry)
		binary.LittleEndian.PutUint32(meta[12:], params.NSSA)
		binary.LittleEndian.PutUint32(meta[16:], uint32(params.OSSA))
		h.Write([]byte("EADDTCS"))
		h.Write(meta[:])
	}

	ctrl := &sgx.Page{}
	binary.LittleEndian.PutUint64(ctrl[offMagic:], controlMagic)
	binary.LittleEndian.PutUint64(ctrl[offNumThread:], uint64(layout.Threads))
	binary.LittleEndian.PutUint64(ctrl[offDataPages:], uint64(layout.DataPages))
	binary.LittleEndian.PutUint64(ctrl[offHeapPages:], uint64(layout.HeapPages))
	binary.LittleEndian.PutUint64(ctrl[offNSSA:], uint64(layout.NSSA))
	extendReg(0, ctrl)

	for tid := 0; tid < layout.Threads; tid++ {
		extendTCS(layout.TCSPage(tid), sgx.TCSParams{Entry: uint32(tid), NSSA: uint32(layout.NSSA), OSSA: layout.SSABase(tid)})
		for s := 0; s < layout.NSSA; s++ {
			extendReg(layout.SSABase(tid)+sgx.PageNum(s), nil)
		}
		extendReg(layout.TLSPage(tid), nil)
	}
	data := app.InitData
	for i := 0; i < layout.DataPages; i++ {
		var page *sgx.Page
		if len(data) > 0 {
			page = &sgx.Page{}
			n := copy(page[:], data)
			data = data[n:]
		}
		extendReg(layout.DataBase()+sgx.PageNum(i), page)
	}
	for i := 0; i < layout.HeapPages; i++ {
		extendReg(layout.HeapBase()+sgx.PageNum(i), nil)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Accessors.

// EnclaveID returns the hardware enclave id.
func (rt *Runtime) EnclaveID() sgx.EnclaveID { return rt.eid }

// Measurement returns MRENCLAVE.
func (rt *Runtime) Measurement() [32]byte { return rt.measurement }

// Layout returns the enclave memory map.
func (rt *Runtime) Layout() Layout { return rt.layout }

// App returns the hosted application description.
func (rt *Runtime) App() *App { return rt.app }

// Machine returns the machine hosting the enclave.
func (rt *Runtime) Machine() *sgx.Machine { return rt.m }

// Host returns the platform this enclave was built on.
func (rt *Runtime) Host() *Host { return rt.host }

// Shared returns the untrusted shared region.
func (rt *Runtime) Shared() sgx.OutsideMemory { return rt.shared }

// ckptRecord is one page record of a checkpoint body: the linear page
// number (u32) followed by the page content.
const ckptRecord = 4 + sgx.PageSize

// MaxCheckpointSize bounds the checkpoint blob of an enclave with layout l:
// a record per page plus 64 KiB for header, final record and cipher
// envelope. The restoring enclave refuses anything longer, so a receiver
// need not accept (or allocate for) more either.
func MaxCheckpointSize(l Layout) int {
	return l.TotalPages()*ckptRecord + 64*1024
}

// SharedSizeFor returns the shared-region size the runtime needs for an
// enclave layout: the protocol request area plus room for a full
// checkpoint blob.
func SharedSizeFor(l Layout) int {
	return SharedCkptOff + MaxCheckpointSize(l)
}

// BuildOption customises enclave construction.
type BuildOption func(*buildOpts)

type buildOpts struct {
	shared sgx.OutsideMemory
}

// WithShared backs the enclave's untrusted shared region with caller-owned
// memory (e.g. guest physical memory inside a VM, so checkpoint dumps dirty
// VM pages and ride the ordinary pre-copy stream).
func WithShared(mem sgx.OutsideMemory) BuildOption {
	return func(o *buildOpts) { o.shared = mem }
}

// Dead reports whether the enclave has self-destroyed.
func (rt *Runtime) Dead() bool { return rt.dead.Load() }

// MarkDead records an out-of-band observation that the enclave has
// self-destroyed. The flag normally flips when an entry attempt returns
// codeDead — one call too late for a protocol that knows the enclave
// destroyed itself during a call that returned normally (key release:
// destroy strictly precedes key-out). Marking at the commit point lets
// the host tell a cancelled migration (enclave resumed) from a
// committed-then-failed one (instance gone) without probing a dead
// enclave.
func (rt *Runtime) MarkDead() { rt.dead.Store(true) }

// WriteShared writes protocol bytes into the shared request area.
func (rt *Runtime) WriteShared(off uint64, b []byte) error { return rt.shared.Store(off, b) }

// ReadShared reads protocol bytes from the shared area.
func (rt *Runtime) ReadShared(off uint64, n uint64) ([]byte, error) {
	b := make([]byte, n)
	if err := rt.shared.Load(off, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ECall synchronously executes application entry sel on worker (0-based
// worker index; thread id is worker+1), driving ERESUME after interrupts,
// parking in the exception handler during migrations, and dispatching
// ocalls. It returns the enclave's result registers. While a migration is
// requested it enters nothing and returns ErrMigrating (DESIGN.md §3).
func (rt *Runtime) ECall(worker int, sel uint64, args ...uint64) ([sgx.NumRegs]uint64, error) {
	var zero [sgx.NumRegs]uint64
	if worker < 0 || worker >= len(rt.workers) {
		return zero, ErrBadWorker
	}
	ws := rt.workers[worker]
	if !ws.mu.TryLock() {
		return zero, ErrWorkerBusy
	}
	defer ws.mu.Unlock()
	if rt.dead.Load() {
		return zero, ErrDestroyed
	}
	ws.entering.Store(true)
	if rt.migrating.Load() {
		ws.entering.Store(false)
		return zero, ErrMigrating
	}
	if ecallGatePassed != nil {
		ecallGatePassed()
	}
	tcsLin := rt.layout.TCSPage(worker + 1)
	enterArgs := append([]uint64{sel}, args...)
	res, err := rt.m.EENTER(ws.lp, rt.eid, tcsLin, enterArgs, rt.shared)
	return rt.driveLocked(ws, tcsLin, res, err)
}

// ecallGatePassed, if set, runs in ECall between the entry gate and EENTER.
// Tests use it to hold a call there; it is nil otherwise.
var ecallGatePassed func()

// EntryPending reports whether an ECall has passed the entry gate but may
// not show in the enclave's thread table yet. A host waiting for quiescence
// reads it before each poll and counts the enclave quiescent only when it
// was false (DESIGN.md §3).
func (rt *Runtime) EntryPending() bool {
	for _, ws := range rt.workers {
		if ws.entering.Load() {
			return true
		}
	}
	return false
}

// ResumeWorker re-attaches a migrated worker on the target machine: it
// enters the exception handler (which spins until the in-enclave
// verification goes green), then drives the restored computation to
// completion and returns its results. Call it in a goroutine per worker
// before ctlTgtVerify, since the handler blocks inside the enclave.
func (rt *Runtime) ResumeWorker(worker int) ([sgx.NumRegs]uint64, error) {
	var zero [sgx.NumRegs]uint64
	if worker < 0 || worker >= len(rt.workers) {
		return zero, ErrBadWorker
	}
	ws := rt.workers[worker]
	if !ws.mu.TryLock() {
		return zero, ErrWorkerBusy
	}
	defer ws.mu.Unlock()
	tcsLin := rt.layout.TCSPage(worker + 1)
	ws.inHandler = true
	res, err := rt.m.EENTER(ws.lp, rt.eid, tcsLin, []uint64{SelHandler}, rt.shared)
	return rt.driveLocked(ws, tcsLin, res, err)
}

// ResumeInterruptedWorker ERESUMEs a worker whose context sits in its SSA
// (used after a hardware-extension transparent migration, where no handler
// parking happened) and drives the computation to completion.
func (rt *Runtime) ResumeInterruptedWorker(worker int) ([sgx.NumRegs]uint64, error) {
	var zero [sgx.NumRegs]uint64
	if worker < 0 || worker >= len(rt.workers) {
		return zero, ErrBadWorker
	}
	ws := rt.workers[worker]
	if !ws.mu.TryLock() {
		return zero, ErrWorkerBusy
	}
	defer ws.mu.Unlock()
	tcsLin := rt.layout.TCSPage(worker + 1)
	res, err := rt.m.ERESUME(ws.lp, rt.eid, tcsLin, rt.shared)
	return rt.driveLocked(ws, tcsLin, res, err)
}

// ProgramFor returns the measured SDK program for an app; the
// hardware-extension path needs it when re-creating an enclave with
// ESWPINSECS.
func ProgramFor(app *App) sgx.Program { return newProgram(app) }

// Adopt wraps an already-existing enclave (e.g. one installed by the
// hardware-extension ESWPIN path) in a Runtime so the ordinary ecall/ocall
// machinery can drive it. The caller guarantees the enclave was built from
// this app image. extraFrames are EPC frames the enclave occupies that are
// not in the manager's page table (SECS, TCS); the Runtime owns them from
// here and returns them on Destroy.
func Adopt(host *Host, app *App, eid sgx.EnclaveID, measurement [32]byte, extraFrames ...sgx.FrameIndex) (*Runtime, error) {
	if err := app.validate(); err != nil {
		for _, f := range extraFrames {
			host.Mgr.ReturnFrame(f)
		}
		return nil, err
	}
	prog := newProgram(app)
	m := host.Mgr.Machine()
	rt := &Runtime{
		host:        host,
		m:           m,
		app:         app,
		layout:      prog.layout,
		eid:         eid,
		measurement: measurement,
		shared:      NewSharedRegion(SharedSizeFor(prog.layout)),
		ctlLP:       m.NewLP(),
		extraFrames: extraFrames,
	}
	host.Disp.Register(eid, host.Mgr)
	rt.workers = make([]*workerState, app.Workers)
	for i := range rt.workers {
		rt.workers[i] = &workerState{lp: m.NewLP()}
	}
	return rt, nil
}

// driveLocked is the AEP/dispatch loop shared by ECall and ResumeWorker;
// the caller holds ws.mu.
func (rt *Runtime) driveLocked(ws *workerState, tcsLin sgx.PageNum, res sgx.EnterResult, err error) ([sgx.NumRegs]uint64, error) {
	var zero [sgx.NumRegs]uint64
	defer ws.entering.Store(false)
	for {
		// The entry stub's first step writes the thread slot.
		if res.Stepped {
			ws.entering.Store(false)
		}
		if err != nil {
			ws.inHandler = false
			if rt.dead.Load() {
				// The enclave self-destroyed and its host tore it down
				// while this thread was outside it, between two entries:
				// the caller sees what a thread inside would have seen.
				return zero, ErrDestroyed
			}
			return zero, err
		}
		switch res.Kind {
		case sgx.ExitAEX:
			if rt.dead.Load() {
				// Destroy interrupted the thread to tear the enclave
				// down: leave instead of re-entering.
				ws.inHandler = false
				return zero, ErrDestroyed
			}
			if rt.paused.Load() && !ws.inHandler {
				// The host wants the thread context left in the SSA (the
				// hardware-extension freeze path): abandon the drive loop.
				return zero, ErrPaused
			}
			if rt.migrating.Load() && !ws.inHandler {
				// Park the interrupted context under the exception
				// handler; the entry stub will see the global flag and
				// spin (paper Sec. IV-B: "we can leverage AEX to make it
				// enter the exception handler in the enclave and then
				// check the global flag").
				ws.inHandler = true
				res, err = rt.m.EENTER(ws.lp, rt.eid, tcsLin, []uint64{SelHandler}, rt.shared)
				continue
			}
			if ws.inHandler {
				// Spinning; don't burn the host CPU while the control
				// thread works.
				time.Sleep(20 * time.Microsecond)
			}
			res, err = rt.m.ERESUME(ws.lp, rt.eid, tcsLin, rt.shared)
		case sgx.ExitEExit:
			switch res.Regs[7] {
			case codeDone:
				return res.Regs, nil
			case codeResumeMe:
				ws.inHandler = false
				res, err = rt.m.ERESUME(ws.lp, rt.eid, tcsLin, rt.shared)
			case codeOCall:
				res, err = rt.dispatchOCallLocked(ws, tcsLin, res.Regs)
			case codeDead:
				ws.inHandler = false
				rt.dead.Store(true)
				return zero, ErrDestroyed
			case codeErr:
				ws.inHandler = false
				return zero, &EnclaveError{Detail: res.Regs[0]}
			default:
				ws.inHandler = false
				return zero, fmt.Errorf("enclave: unexpected exit code %d", res.Regs[7])
			}
		default:
			return zero, fmt.Errorf("enclave: unexpected exit kind %d", res.Kind)
		}
	}
}

func (rt *Runtime) dispatchOCallLocked(ws *workerState, tcsLin sgx.PageNum, regs [sgx.NumRegs]uint64) (sgx.EnterResult, error) {
	var r0, r1 uint64
	if rt.app.OCall != nil {
		out, err := rt.app.OCall(rt, regs[0], regs[1], regs[2])
		if err != nil {
			r1 = 1
		}
		r0 = out
	} else {
		r1 = 1
	}
	return rt.m.EENTER(ws.lp, rt.eid, tcsLin, []uint64{SelOCallReturn, r0, r1}, rt.shared)
}

// CtlCall executes a control-thread selector synchronously.
func (rt *Runtime) CtlCall(sel uint64, args ...uint64) ([sgx.NumRegs]uint64, error) {
	return rt.CtlCallOn(rt.shared, sel, args...)
}

// CtlCallOn is CtlCall with mem, not the runtime's shared region, as the
// untrusted memory the enclave sees during the call. The migration manager
// hands a dump or a restore the memory its checkpoint crosses the host in.
func (rt *Runtime) CtlCallOn(mem sgx.OutsideMemory, sel uint64, args ...uint64) ([sgx.NumRegs]uint64, error) {
	var zero [sgx.NumRegs]uint64
	rt.ctlMu.Lock()
	defer rt.ctlMu.Unlock()
	tcsLin := rt.layout.TCSPage(0)
	enterArgs := append([]uint64{sel}, args...)
	res, err := rt.m.EENTER(rt.ctlLP, rt.eid, tcsLin, enterArgs, mem)
	for {
		if err != nil {
			return zero, err
		}
		switch res.Kind {
		case sgx.ExitAEX:
			if rt.dead.Load() {
				return zero, ErrDestroyed
			}
			res, err = rt.m.ERESUME(rt.ctlLP, rt.eid, tcsLin, mem)
		case sgx.ExitEExit:
			switch res.Regs[7] {
			case codeDone:
				return res.Regs, nil
			case codeDead:
				rt.dead.Store(true)
				return zero, ErrDestroyed
			case codeErr:
				return zero, &EnclaveError{Detail: res.Regs[0]}
			default:
				return zero, fmt.Errorf("enclave: unexpected control exit code %d", res.Regs[7])
			}
		default:
			return zero, fmt.Errorf("enclave: unexpected exit kind %d", res.Kind)
		}
	}
}

// PauseWorkers interrupts every worker and leaves their contexts parked in
// their SSA frames: their ecall callers get ErrPaused. Used before a
// hardware-extension EMIGRATE freeze, which requires no active threads.
func (rt *Runtime) PauseWorkers() {
	rt.paused.Store(true)
	for _, ws := range rt.workers {
		ws.lp.Interrupt()
	}
}

// RequestMigration flips the runtime into migration mode and interrupts all
// workers so they reach the in-enclave spin region (the guest OS's
// SIGUSR1-on-migration path, Fig. 8 step 3-4). The flag goes up before the
// interrupts: from here on ECall refuses new entries, and one that passed
// its check just before takes the interrupt at its first step.
func (rt *Runtime) RequestMigration() {
	quiesced.Take(&rt.migrating)
	for _, ws := range rt.workers {
		ws.lp.Interrupt()
	}
}

// EndMigration clears migration mode (after completion or cancel) and lets
// ECall enter again.
func (rt *Runtime) EndMigration() { quiesced.Give(&rt.migrating) }

// quiesced counts the runtimes in migration mode that are not destroyed: a
// migration that ends in neither commit nor cancel leaves its source here.
var quiesced = ledger.New("quiesced-runtime")

// InterruptWorkers re-kicks workers that have not yet parked.
func (rt *Runtime) InterruptWorkers() {
	for _, ws := range rt.workers {
		ws.lp.Interrupt()
	}
}

// RebuildCSSA replays k forced asynchronous exits on each worker TCS so the
// hardware CSSA matches the checkpoint (restore Step-3). The garbage SSA
// frames it produces are overwritten by ctlTgtRestore. migK is indexed by
// thread id as in the checkpoint header.
func (rt *Runtime) RebuildCSSA(migK []uint32) error {
	for tid := 1; tid < rt.layout.Threads && tid < len(migK); tid++ {
		ws := rt.workers[tid-1]
		ws.mu.Lock()
		tcsLin := rt.layout.TCSPage(tid)
		for i := uint32(0); i < migK[tid]; i++ {
			ws.lp.Interrupt()
			res, err := rt.m.EENTER(ws.lp, rt.eid, tcsLin, []uint64{SelNop}, rt.shared)
			if err != nil {
				ws.mu.Unlock()
				return fmt.Errorf("enclave: CSSA rebuild enter: %w", err)
			}
			if res.Kind != sgx.ExitAEX {
				ws.mu.Unlock()
				return fmt.Errorf("enclave: CSSA rebuild expected AEX, got exit")
			}
		}
		ws.mu.Unlock()
	}
	return nil
}

// Destroy tears the enclave down and returns its EPC frames. It marks the
// runtime dead, so no ECall enters again, and interrupts its logical
// processors: a thread of the runtime still inside the enclave leaves at its
// next AEX with ErrDestroyed instead of re-entering. While the machine
// reports a TCS still active, Destroy waits for the runtime's calls to
// return and tries again, so it does not return while one of its threads is
// inside.
func (rt *Runtime) Destroy() error {
	rt.dead.Store(true)
	for {
		rt.InterruptWorkers()
		rt.ctlLP.Interrupt()
		err := rt.m.DestroyEnclave(rt.eid)
		if err == nil {
			break
		}
		if !errors.Is(err, sgx.ErrTCSActive) {
			return err
		}
		rt.waitOutCalls()
	}
	rt.host.Disp.Unregister(rt.eid)
	rt.host.Mgr.ForgetEnclave(rt.eid)
	for _, f := range rt.extraFrames {
		rt.host.Mgr.ReturnFrame(f)
	}
	// No thread is inside any more, and every drive loop checks dead
	// before the migration flag.
	rt.EndMigration()
	return nil
}

// waitOutCalls returns once every call the runtime was driving when it was
// called has returned: each holds its worker's lock, or the control
// thread's, until it does.
func (rt *Runtime) waitOutCalls() {
	for _, ws := range rt.workers {
		ws.mu.Lock()
		ws.mu.Unlock()
	}
	rt.ctlMu.Lock()
	rt.ctlMu.Unlock()
}
