package sgx

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"repro/internal/tcb"
)

// Program is the measured trusted code of an enclave.
//
// Step executes one bounded unit of trusted computation. All mutable state
// a Program relies on must live in enclave memory (via env) or in ctx; the
// simulator may interrupt execution between any two steps (AEX), serialise
// ctx into the SSA, and later resume it — possibly on another machine after
// a migration.
type Program interface {
	// CodeHash is the identity of the code, folded into MRENCLAVE.
	CodeHash() [32]byte
	// Step runs one unit of work and reports whether the thread keeps
	// running, exits the enclave, or aborts.
	Step(env *Env, ctx *Context) Status
}

// Status is the outcome of one Program step.
type Status int

// Step outcomes.
const (
	// StatusRunning means the thread has more work; the simulator may take
	// a pending interrupt before the next step.
	StatusRunning Status = iota + 1
	// StatusExit means the thread executed EEXIT; ctx registers are handed
	// back to the untrusted caller.
	StatusExit
	// StatusAbort models an enclave fault (e.g. in-enclave assertion); the
	// enclave thread dies and EENTER returns ErrEnclaveCrashed.
	StatusAbort
)

// Context is the simulated register file of a thread executing inside an
// enclave. It is the unit saved to / restored from SSA frames.
type Context struct {
	// Entry is the TCS entry point (OENTRY) this thread came in through.
	Entry uint32
	// PC is a program-counter analogue: step functions use it to encode
	// their control-flow position so that execution can resume after AEX.
	PC uint64
	// R is the general-purpose register file.
	R [NumRegs]uint64
}

// contextBytes is the serialised size of a Context inside an SSA frame.
const contextBytes = 4 + 8 + 8*NumRegs

func (c *Context) marshal(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], c.Entry)
	binary.LittleEndian.PutUint64(b[4:], c.PC)
	for i, r := range c.R {
		binary.LittleEndian.PutUint64(b[12+8*i:], r)
	}
}

func (c *Context) unmarshal(b []byte) {
	c.Entry = binary.LittleEndian.Uint32(b[0:])
	c.PC = binary.LittleEndian.Uint64(b[4:])
	for i := range c.R {
		c.R[i] = binary.LittleEndian.Uint64(b[12+8*i:])
	}
}

// TCSParams is the software-provided part of a Thread Control Structure,
// fixed at EADD time and folded into the measurement.
type TCSParams struct {
	// Entry is the OENTRY dispatcher id the thread always enters through.
	Entry uint32
	// NSSA is the number of State Save Area frames (pages) for this thread.
	NSSA uint32
	// OSSA is the linear page of the first SSA frame; frames occupy NSSA
	// consecutive pages starting there.
	OSSA PageNum
}

// tcs is the hardware-owned thread control structure. CSSA and the active
// flag are intentionally unexported and never surface through any API:
// software cannot read or write them, exactly as on real SGX (the paper's
// Sec. IV-C problem statement).
type tcs struct {
	params TCSParams
	cssa   uint32
	active bool
}

type vaPage struct {
	slots [VASlotsPerPage]uint64 // 0 = empty
}

// frame is one EPC page frame: its EPCM entry (valid, owner, type, linear
// page, permissions) and what it holds. A frame owns its page: data is
// allocated the first time the frame holds a regular page and stays with the
// frame when the frame is freed or holds a TCS, VA or SECS page, because EPC
// is fixed physical memory. Whatever installs a regular page overwrites all
// of data (EADD, ELDU, ESWPIN), so a freed frame's old content is never read.
type frame struct {
	valid bool
	eid   EnclaveID
	ptype PageType
	lin   PageNum
	perm  Perm
	data  *Page
	tcs   *tcs
	va    *vaPage
}

// set replaces the frame's EPCM entry and contents with next's, keeping the
// frame's page.
func (fr *frame) set(next frame) {
	next.data = fr.data
	*fr = next
}

// page returns the frame's page, allocating it the first time.
func (fr *frame) page() *Page {
	if fr.data == nil {
		fr.data = new(Page)
	}
	return fr.data
}

// enclaveControl is the SECS plus the hardware-side runtime state of one
// enclave.
type enclaveControl struct {
	id        EnclaveID
	sizePages int
	nssa      uint32
	prog      Program
	measure   hash.Hash
	mrenclave [32]byte
	mrsigner  [32]byte
	inited    bool
	// secs is the frame holding this SECS; with pageTable it names every
	// frame the enclave occupies, so teardown never scans the EPC.
	secs FrameIndex
	// pageTable maps resident linear pages to their EPC frames. On real
	// hardware this translation lives in OS page tables and the EPCM check
	// rejects mismatches; keeping the authoritative map in "hardware" is
	// security-equivalent and simpler.
	pageTable map[PageNum]FrameIndex
	// migration-extension state (Sec. VII-B proposal), see hwext.go.
	migFrozen bool
	migDigest [32]byte
}

// Config configures a simulated machine.
type Config struct {
	// Name identifies the machine (used in quotes and logs).
	Name string
	// EPCFrames is the number of physical EPC page frames. Default 4096
	// (16 MiB), in the spirit of the era's ~93 MiB usable EPC scaled to
	// simulation size.
	EPCFrames int
	// Quantum, if > 0, injects a timer interrupt (AEX) after that many
	// program steps without an external interrupt, modelling preemption.
	Quantum int
	// MigrationExtension enables the paper's proposed hardware
	// instructions (EPUTKEY/EMIGRATE/ESWPOUT/...). Off by default, as on
	// real SGX v1/v2.
	MigrationExtension bool
}

// Machine is one simulated SGX-capable physical machine: a package-private
// root key (the fused CPU secret), an EPC, and the instruction surface.
type Machine struct {
	mu sync.RWMutex

	name    string
	rootKey tcb.Key // never leaves this package
	attest  *tcb.SigningIdentity
	// pageSealer is the EWB/ELDU page-encryption key, derived from rootKey
	// and expanded once at boot; like rootKey it never leaves this package.
	// Immutable after NewMachine.
	pageSealer *tcb.Sealer

	frames   []frame                       // guarded by mu
	enclaves map[EnclaveID]*enclaveControl // guarded by mu
	nextEID  EnclaveID                     // guarded by mu
	nextVer  uint64                        // EWB version counter; guarded by mu
	quantum  int

	// spareBlobs are sealed-page buffers that ELDU took back from the blobs
	// it consumed, for EWB to seal into.
	spareBlobs [][]byte // guarded by mu

	migExtension bool
	// migSeal and migOpen are the migration keys EPUTKEY installs (hwext),
	// nil otherwise: one per direction, so only this CPU seals under
	// migSeal and only the peer's under migOpen.
	migSeal        *tcb.Sealer // guarded by mu
	migOpen        *tcb.Sealer // guarded by mu
	ctrlEnclave    [32]byte    // measurement allowed to execute EPUTKEY
	ctrlEnclaveSet bool

	// evictAAD is scratch for the EWB/ELDU additional data: a local array
	// handed to the AEAD would escape and cost one allocation per page.
	evictAAD [14]byte // guarded by mu

	// verifiedSigs holds the SIGSTRUCTs whose signature EINIT verified on
	// this machine, keyed by all their bytes, so rebuilding an image checks
	// its signature once. Only successes are kept, and the set is emptied
	// when it would pass maxVerifiedSigs, so self-signed SIGSTRUCTs fed by a
	// host cannot grow it.
	sigMu        sync.Mutex
	verifiedSigs map[SigStruct]struct{} // guarded by sigMu

	// faultHandler is installed by the OS/driver to page evicted pages
	// back in when enclave execution touches them. It is called without
	// the machine lock held.
	faultHandler FaultHandler

	// Entry/exit event counters (atomic, not mu: they sit on the enter
	// hot path). Untrusted observability code reads them via ExecCounters.
	eenterCount  atomic.Uint64
	eresumeCount atomic.Uint64
	aexCount     atomic.Uint64
}

// ExecCounters returns the machine-lifetime totals of EENTER and ERESUME
// entries and asynchronous exits (AEX). The hypervisor/telemetry layer
// polls them; they are monotonic and never reset.
func (m *Machine) ExecCounters() (eenter, eresume, aex uint64) {
	return m.eenterCount.Load(), m.eresumeCount.Load(), m.aexCount.Load()
}

// FaultHandler is invoked when enclave execution touches a non-resident
// page. The handler (the OS's SGX driver) must make the page resident via
// ELDU and return nil, or return an error to kill the access.
type FaultHandler func(eid EnclaveID, lin PageNum) error

// NewMachine boots a simulated SGX machine with fresh hardware keys.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.EPCFrames <= 0 {
		cfg.EPCFrames = 4096
	}
	root, err := tcb.RandomKey()
	if err != nil {
		return nil, err
	}
	id, err := tcb.NewSigningIdentity()
	if err != nil {
		return nil, err
	}
	pageSealer, err := tcb.NewSealer(tcb.DeriveKey(root, "page-encryption"))
	if err != nil {
		return nil, err
	}
	return &Machine{
		name:         cfg.Name,
		rootKey:      root,
		attest:       id,
		pageSealer:   pageSealer,
		frames:       make([]frame, cfg.EPCFrames),
		enclaves:     make(map[EnclaveID]*enclaveControl),
		verifiedSigs: make(map[SigStruct]struct{}),
		nextEID:      1,
		nextVer:      1,
		quantum:      cfg.Quantum,
		migExtension: cfg.MigrationExtension,
	}, nil
}

// Name returns the machine's display name.
func (m *Machine) Name() string { return m.name }

// NumFrames returns the number of physical EPC frames.
//
//lint:ignore lockdiscipline the frames slice header is immutable after NewMachine; only its elements need mu
func (m *Machine) NumFrames() int { return len(m.frames) }

// LiveEnclaves reports how many enclaves the machine holds: created and
// not yet destroyed.
func (m *Machine) LiveEnclaves() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.enclaves)
}

// FrameFree reports whether an EPC frame is unused.
func (m *Machine) FrameFree(f FrameIndex) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.frameFreeLocked(f)
}

func (m *Machine) frameFreeLocked(f FrameIndex) bool {
	return int(f) >= 0 && int(f) < len(m.frames) && !m.frames[f].valid
}

// SetFaultHandler installs the OS page-in handler.
func (m *Machine) SetFaultHandler(h FaultHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faultHandler = h
}

// AttestationPublic returns the machine's attestation public key, as
// registered with the (simulated) Intel Attestation Service during
// provisioning.
func (m *Machine) AttestationPublic() tcb.PublicKey { return m.attest.Public() }

// EnclaveMeasurement returns the MRENCLAVE of an initialised enclave. The
// measurement is public information (the OS built the enclave), so exposing
// it does not weaken the model.
func (m *Machine) EnclaveMeasurement(eid EnclaveID) ([32]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.enclaves[eid]
	if !ok {
		return [32]byte{}, ErrNoSuchEnclave
	}
	if !e.inited {
		return [32]byte{}, ErrNotInitialized
	}
	return e.mrenclave, nil
}

// ResidentPages returns the linear pages of eid currently resident in EPC.
func (m *Machine) ResidentPages(eid EnclaveID) ([]PageNum, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.enclaves[eid]
	if !ok {
		return nil, ErrNoSuchEnclave
	}
	pages := make([]PageNum, 0, len(e.pageTable))
	for lin := range e.pageTable {
		pages = append(pages, lin)
	}
	return pages, nil
}

// SigStruct is the enclave signature structure checked by EINIT.
type SigStruct struct {
	// Measurement is the expected MRENCLAVE.
	Measurement [32]byte
	// Signer is the sealing authority's public key; MRSIGNER = SHA-256 of it.
	Signer tcb.PublicKey
	// Sig is the signer's signature over Measurement.
	Sig tcb.Signature
}

// SignEnclave produces a SigStruct for a measurement using the developer's
// signing identity.
func SignEnclave(id *tcb.SigningIdentity, measurement [32]byte) SigStruct {
	return SigStruct{
		Measurement: measurement,
		Signer:      id.Public(),
		Sig:         id.Sign(measurement[:]),
	}
}

// ECREATE allocates frame as the SECS of a new enclave running prog with an
// address range of sizePages pages and nssa SSA frames per thread. It
// returns the new enclave id.
func (m *Machine) ECREATE(f FrameIndex, prog Program, sizePages int, nssa uint32) (EnclaveID, error) {
	if prog == nil || sizePages <= 0 || nssa == 0 {
		return 0, fmt.Errorf("sgx: ECREATE: invalid parameters")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(f) < 0 || int(f) >= len(m.frames) {
		return 0, ErrBadFrame
	}
	if m.frames[f].valid {
		return 0, ErrFrameInUse
	}
	eid := m.nextEID
	m.nextEID++
	e := &enclaveControl{
		id:        eid,
		sizePages: sizePages,
		nssa:      nssa,
		prog:      prog,
		measure:   sha256.New(),
		secs:      f,
		pageTable: make(map[PageNum]FrameIndex),
	}
	ch := prog.CodeHash()
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(sizePages))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(nssa))
	e.measure.Write([]byte("ECREATE"))
	e.measure.Write(hdr[:16])
	e.measure.Write(ch[:])
	m.frames[f].set(frame{valid: true, eid: eid, ptype: PTSecs})
	m.enclaves[eid] = e
	return eid, nil
}

// zeroPageHash is the SHA-256 of an all-zero page, computed once.
var zeroPageHash = sha256.Sum256(make([]byte, PageSize))

// ZeroPageHash returns the SHA-256 of an all-zero page: what EADD folds into
// the measurement for a page added without content. An SDK that computes
// MRENCLAVE offline uses the same value, so the two cannot drift apart.
func ZeroPageHash() [32]byte { return zeroPageHash }

// EADD adds a regular page with the given content and permissions at linear
// page lin, and extends the measurement with its content (folding in what
// real hardware does via EEXTEND over 256-byte chunks). The content is
// copied into the frame's own page; a nil content zeroes it, and its hash is
// not recomputed.
func (m *Machine) EADD(f FrameIndex, eid EnclaveID, lin PageNum, perm Perm, content *Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.addCommonLocked(f, eid, lin)
	if err != nil {
		return err
	}
	fr := &m.frames[f]
	data := fr.page()
	pageHash := zeroPageHash
	if content != nil {
		*data = *content
		pageHash = sha256.Sum256(data[:])
	} else {
		clear(data[:])
	}
	fr.set(frame{valid: true, eid: eid, ptype: PTReg, lin: lin, perm: perm})
	e.pageTable[lin] = f
	var meta [12]byte
	binary.LittleEndian.PutUint32(meta[0:], uint32(lin))
	meta[4] = byte(PTReg)
	meta[5] = byte(perm)
	e.measure.Write([]byte("EADD"))
	e.measure.Write(meta[:])
	e.measure.Write(pageHash[:])
	return nil
}

// EADDTCS adds a TCS page at linear page lin. TCS pages are owned by the
// hardware: the enclave cannot read or write them, and the untrusted side
// only ever refers to them by linear address.
func (m *Machine) EADDTCS(f FrameIndex, eid EnclaveID, lin PageNum, params TCSParams) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.addCommonLocked(f, eid, lin)
	if err != nil {
		return err
	}
	if params.NSSA == 0 || params.NSSA > e.nssa {
		return fmt.Errorf("sgx: EADDTCS: NSSA %d out of range (SECS allows %d)", params.NSSA, e.nssa)
	}
	if int(params.OSSA)+int(params.NSSA) > e.sizePages {
		return ErrOutOfRange
	}
	m.frames[f].set(frame{valid: true, eid: eid, ptype: PTTcs, lin: lin, tcs: &tcs{params: params}})
	e.pageTable[lin] = f
	var meta [24]byte
	binary.LittleEndian.PutUint32(meta[0:], uint32(lin))
	meta[4] = byte(PTTcs)
	binary.LittleEndian.PutUint32(meta[8:], params.Entry)
	binary.LittleEndian.PutUint32(meta[12:], params.NSSA)
	binary.LittleEndian.PutUint32(meta[16:], uint32(params.OSSA))
	e.measure.Write([]byte("EADDTCS"))
	e.measure.Write(meta[:])
	return nil
}

func (m *Machine) addCommonLocked(f FrameIndex, eid EnclaveID, lin PageNum) (*enclaveControl, error) {
	e, ok := m.enclaves[eid]
	if !ok {
		return nil, ErrNoSuchEnclave
	}
	if e.inited {
		return nil, ErrAlreadyInit
	}
	if int(f) < 0 || int(f) >= len(m.frames) {
		return nil, ErrBadFrame
	}
	if m.frames[f].valid {
		return nil, ErrFrameInUse
	}
	if int(lin) >= e.sizePages {
		return nil, ErrOutOfRange
	}
	if _, dup := e.pageTable[lin]; dup {
		return nil, ErrPageConflict
	}
	return e, nil
}

// EPA converts frame f into a Version Array page used by EWB/ELDU
// anti-replay. VA pages belong to no enclave.
func (m *Machine) EPA(f FrameIndex) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(f) < 0 || int(f) >= len(m.frames) {
		return ErrBadFrame
	}
	if m.frames[f].valid {
		return ErrFrameInUse
	}
	m.frames[f].set(frame{valid: true, ptype: PTVa, va: &vaPage{}})
	return nil
}

// maxVerifiedSigs bounds a machine's set of verified SIGSTRUCTs.
const maxVerifiedSigs = 64

// verifySigStruct checks ss's signature over its measurement, once per
// machine for a SIGSTRUCT that verified. It takes no machine lock.
func (m *Machine) verifySigStruct(ss SigStruct) error {
	m.sigMu.Lock()
	_, ok := m.verifiedSigs[ss]
	m.sigMu.Unlock()
	if ok {
		return nil
	}
	if err := tcb.Verify(ss.Signer, ss.Measurement[:], ss.Sig); err != nil {
		return err
	}
	m.sigMu.Lock()
	if len(m.verifiedSigs) >= maxVerifiedSigs {
		clear(m.verifiedSigs)
	}
	m.verifiedSigs[ss] = struct{}{}
	m.sigMu.Unlock()
	return nil
}

// EINIT finalises the enclave measurement, verifies the SIGSTRUCT and makes
// the enclave executable. The signature is checked before the machine lock
// is taken, so other enclaves' memory accesses do not wait on it; its
// verdict is reported after the checks made under the lock.
func (m *Machine) EINIT(eid EnclaveID, ss SigStruct) error {
	sigErr := m.verifySigStruct(ss)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.enclaves[eid]
	if !ok {
		return ErrNoSuchEnclave
	}
	if e.inited {
		return ErrAlreadyInit
	}
	var mr [32]byte
	copy(mr[:], e.measure.Sum(nil))
	if mr != ss.Measurement {
		return fmt.Errorf("%w: measurement mismatch", ErrSigstruct)
	}
	if sigErr != nil {
		return fmt.Errorf("%w: %v", ErrSigstruct, sigErr)
	}
	e.mrenclave = mr
	e.mrsigner = sha256.Sum256(ss.Signer[:])
	e.inited = true
	return nil
}

// EREMOVE frees an EPC frame. A SECS frame can only be removed once no other
// frame of the enclave remains, matching hardware rules; removing the SECS
// destroys the enclave.
func (m *Machine) EREMOVE(f FrameIndex) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(f) < 0 || int(f) >= len(m.frames) {
		return ErrBadFrame
	}
	fr := &m.frames[f]
	if !fr.valid {
		return ErrFrameFree
	}
	switch fr.ptype {
	case PTSecs:
		for i := range m.frames {
			if FrameIndex(i) != f && m.frames[i].valid && m.frames[i].eid == fr.eid {
				return ErrChildrenPresent
			}
		}
		delete(m.enclaves, fr.eid)
	case PTTcs:
		if fr.tcs.active {
			return ErrTCSActive
		}
		fallthrough
	case PTReg:
		if e, ok := m.enclaves[fr.eid]; ok {
			delete(e.pageTable, fr.lin)
		}
	case PTVa:
		// VA pages can always be removed; doing so forfeits the ability to
		// reload the blobs whose versions lived there (as on hardware).
	}
	fr.set(frame{})
	return nil
}

// DestroyEnclave is a convenience that EREMOVEs every frame of an enclave,
// SECS last. It fails, freeing nothing, if any thread is still active. The
// page table names every frame but the SECS (evicted pages hold none), so
// teardown costs the enclave's resident pages, not the EPC's size.
func (m *Machine) DestroyEnclave(eid EnclaveID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.enclaves[eid]
	if !ok {
		return ErrNoSuchEnclave
	}
	for _, f := range e.pageTable {
		if fr := &m.frames[f]; fr.ptype == PTTcs && fr.tcs.active {
			return ErrTCSActive
		}
	}
	for lin, f := range e.pageTable {
		m.frames[f].set(frame{})
		delete(e.pageTable, lin)
	}
	m.frames[e.secs].set(frame{})
	delete(m.enclaves, eid)
	return nil
}

// resident returns the frame backing (eid, lin) if resident.
func (m *Machine) residentLocked(e *enclaveControl, lin PageNum) (*frame, bool) {
	f, ok := e.pageTable[lin]
	if !ok {
		return nil, false
	}
	return &m.frames[f], true
}

// keyFor derives a machine-private key. The derivations mirror the SGX key
// hierarchy: seal keys bound to enclave identity and report keys bound to
// the target measurement (the EWB page-encryption key is derived the same
// way, once, in NewMachine).
func (m *Machine) keyFor(purpose string, context ...[]byte) tcb.Key {
	return tcb.DeriveKey(m.rootKey, purpose, context...)
}
