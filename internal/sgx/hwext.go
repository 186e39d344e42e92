package sgx

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sort"

	"repro/internal/tcb"
)

// This file implements the hardware extension the paper *proposes* in
// Sec. VII-B ("Suggestions on Hardware Design for Migration"):
//
//	EPUTKEY      install shared migration keys (control enclave only)
//	EMIGRATE     freeze an enclave and snapshot its state digest
//	ESWPOUT      re-seal a resident page under the migration key
//	ECHANGEOUT   re-seal an already-EWB-evicted page under the migration key
//	ESWPIN       install a migrated page on the target machine
//	ECHANGEIN    convert a migrated page back into a loadable EWB blob
//	EMIGRATEDONE verify the whole migrated state and make the enclave runnable
//
// It exists so the repo can quantify the proposal against the paper's
// software mechanism (benchmark A3). The instructions are gated behind
// Config.MigrationExtension, mirroring that no shipping SGX has them.

// Extension errors.
var (
	ErrEnclaveFrozen    = errors.New("sgx: enclave is frozen by EMIGRATE")
	ErrEnclaveNotFrozen = errors.New("sgx: enclave is not frozen")
	ErrNoMigrationKey   = errors.New("sgx: no migration key installed (EPUTKEY)")
	ErrNotControl       = errors.New("sgx: EPUTKEY caller is not the control enclave")
	ErrThreadsActive    = errors.New("sgx: enclave threads still active")
	ErrStateDigest      = errors.New("sgx: migrated state digest mismatch")
	ErrBadReportTarget  = errors.New("sgx: report not targeted at the quoting enclave")
	ErrBadReportMAC     = errors.New("sgx: report MAC invalid")
)

// RegisterControlEnclave records the measurement of the platform's control
// enclave — the only enclave allowed to execute EPUTKEY. On real hardware
// Intel would provision this; in the simulator the platform owner sets it
// once at boot.
func (m *Machine) RegisterControlEnclave(mr [32]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.migExtension {
		return ErrNotMigratable
	}
	if m.ctrlEnclaveSet {
		return ErrAlreadyInit
	}
	m.ctrlEnclave = mr
	m.ctrlEnclaveSet = true
	return nil
}

// EPutKey installs the migration keys into the CPU: out seals what this
// machine migrates out, in opens what its peer migrated in. Only the
// registered control enclave may execute it (paper: "a new instruction
// EPUTKEY, which can only be executed by the control enclave"). Each key is
// sealed under by one CPU alone, with the machine's version counter as the
// nonce, so no nonce repeats under a key however many enclaves migrate
// either way.
func (env *Env) EPutKey(out, in tcb.Key) error {
	m := env.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.migExtension {
		return ErrNotMigratable
	}
	if !m.ctrlEnclaveSet || env.e.mrenclave != m.ctrlEnclave {
		return ErrNotControl
	}
	seal, err := tcb.NewSealer(out)
	if err != nil {
		return err
	}
	open, err := tcb.NewSealer(in)
	if err != nil {
		return err
	}
	// A later EPUTKEY replaces the instances: nothing sealed from here on
	// uses the previous keys.
	m.migSeal, m.migOpen = seal, open
	return nil
}

// EMIGRATE freezes the enclave: all EENTER/ERESUME are refused, so its state
// cannot change during migration, and computes the state digest that
// EMIGRATEDONE will verify on the target. All pages must be resident and no
// thread may be active.
func (m *Machine) EMIGRATE(eid EnclaveID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.migExtension {
		return ErrNotMigratable
	}
	if m.migSeal == nil {
		return ErrNoMigrationKey
	}
	e, ok := m.enclaves[eid]
	if !ok {
		return ErrNoSuchEnclave
	}
	if !e.inited {
		return ErrNotInitialized
	}
	if e.migFrozen {
		return ErrEnclaveFrozen
	}
	for _, fi := range e.pageTable {
		fr := &m.frames[fi]
		if fr.ptype == PTTcs && fr.tcs.active {
			return ErrThreadsActive
		}
	}
	digest, err := m.stateDigestLocked(e)
	if err != nil {
		return err
	}
	e.migDigest = digest
	e.migFrozen = true
	return nil
}

// stateDigestLocked hashes every resident page of the enclave in linear
// order: REG page contents and TCS fields including CSSA.
func (m *Machine) stateDigestLocked(e *enclaveControl) ([32]byte, error) {
	lins := make([]PageNum, 0, len(e.pageTable))
	for lin := range e.pageTable {
		lins = append(lins, lin)
	}
	sort.Slice(lins, func(i, j int) bool { return lins[i] < lins[j] })
	h := sha256.New()
	h.Write(e.mrenclave[:])
	var meta [10]byte
	for _, lin := range lins {
		fr := &m.frames[e.pageTable[lin]]
		binary.LittleEndian.PutUint32(meta[0:], uint32(lin))
		meta[4] = byte(fr.ptype)
		meta[5] = byte(fr.perm)
		h.Write(meta[:6])
		switch fr.ptype {
		case PTReg:
			h.Write(fr.data[:])
		case PTTcs:
			h.Write(fr.tcs.marshal())
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// MigratedPage is a page sealed under the shared migration key, produced by
// ESWPOUT/ECHANGEOUT on the source and consumed by ESWPIN/ECHANGEIN on the
// target.
type MigratedPage struct {
	Lin    PageNum
	Type   PageType
	Perm   Perm
	Seq    uint64 // per-enclave sequence, part of the AEAD nonce
	Cipher []byte
}

// MigratedSECS carries the enclave control structure across machines, sealed
// under the migration key.
type MigratedSECS struct {
	Seq    uint64 // the AEAD nonce, drawn from the same counter as the pages'
	Cipher []byte
}

func migAAD(lin PageNum, pt PageType, perm Perm) []byte {
	aad := make([]byte, 6)
	binary.LittleEndian.PutUint32(aad[0:], uint32(lin))
	aad[4] = byte(pt)
	aad[5] = byte(perm)
	return aad
}

// ESWPOUTSECS seals the SECS of a frozen enclave for transport.
func (m *Machine) ESWPOUTSECS(eid EnclaveID) (*MigratedSECS, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.frozenLocked(eid)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8+8+32+32)
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.sizePages))
	binary.LittleEndian.PutUint64(buf[8:], uint64(e.nssa))
	copy(buf[16:48], e.mrenclave[:])
	copy(buf[48:80], e.migDigest[:])
	seq := m.nextVer
	m.nextVer++
	return &MigratedSECS{Seq: seq, Cipher: m.migSeal.Seal(nil, seq, buf, []byte("SECS"))}, nil
}

// ESWPOUT re-seals one resident page of a frozen enclave under the migration
// key ("first decrypt the EPC page, then encrypt it with the encryption key,
// last generate a MAC with the signing key" — AES-GCM provides both).
func (m *Machine) ESWPOUT(eid EnclaveID, lin PageNum) (*MigratedPage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.frozenLocked(eid)
	if err != nil {
		return nil, err
	}
	fr, ok := m.residentLocked(e, lin)
	if !ok {
		return nil, ErrPageNotResident
	}
	var plaintext []byte
	switch fr.ptype {
	case PTReg:
		plaintext = fr.data[:]
	case PTTcs:
		plaintext = fr.tcs.marshal()
	default:
		return nil, ErrPermission
	}
	seq := m.nextVer
	m.nextVer++
	cipher := m.migSeal.Seal(nil, seq, plaintext, migAAD(lin, fr.ptype, fr.perm))
	return &MigratedPage{Lin: lin, Type: fr.ptype, Perm: fr.perm, Seq: seq, Cipher: cipher}, nil
}

// ECHANGEOUT converts an EWB-evicted page directly into a migrated page
// without loading it back into EPC, consuming its VA slot.
func (m *Machine) ECHANGEOUT(ev *EvictedPage, vaFrame FrameIndex, slot int) (*MigratedPage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.migExtension {
		return nil, ErrNotMigratable
	}
	if m.migSeal == nil {
		return nil, ErrNoMigrationKey
	}
	e, ok := m.enclaves[ev.Enclave]
	if !ok {
		return nil, ErrNoSuchEnclave
	}
	if !e.migFrozen {
		return nil, ErrEnclaveNotFrozen
	}
	va, err := m.vaSlotLocked(vaFrame, slot)
	if err != nil {
		return nil, err
	}
	if va.slots[slot] == 0 || va.slots[slot] != ev.Version {
		return nil, ErrReplay
	}
	plaintext, err := m.pageSealer.Open(nil, ev.Version, ev.Cipher, m.evictAADLocked(ev.Enclave, ev.Lin, ev.Type, ev.Perm))
	if err != nil {
		return nil, ErrSealBroken
	}
	seq := m.nextVer
	m.nextVer++
	cipher := m.migSeal.Seal(nil, seq, plaintext, migAAD(ev.Lin, ev.Type, ev.Perm))
	va.slots[slot] = 0
	return &MigratedPage{Lin: ev.Lin, Type: ev.Type, Perm: ev.Perm, Seq: seq, Cipher: cipher}, nil
}

func (m *Machine) frozenLocked(eid EnclaveID) (*enclaveControl, error) {
	if !m.migExtension {
		return nil, ErrNotMigratable
	}
	if m.migSeal == nil {
		return nil, ErrNoMigrationKey
	}
	e, ok := m.enclaves[eid]
	if !ok {
		return nil, ErrNoSuchEnclave
	}
	if !e.migFrozen {
		return nil, ErrEnclaveNotFrozen
	}
	return e, nil
}

// ESWPINSECS creates a frozen enclave on the target machine from a migrated
// SECS. The host supplies the Program whose CodeHash was measured on the
// source; the carried MRENCLAVE is adopted and later covered by the
// EMIGRATEDONE digest check.
func (m *Machine) ESWPINSECS(f FrameIndex, ms *MigratedSECS, prog Program) (EnclaveID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.migExtension {
		return 0, ErrNotMigratable
	}
	if m.migSeal == nil {
		return 0, ErrNoMigrationKey
	}
	if ms == nil || prog == nil {
		return 0, ErrSealBroken
	}
	if !m.frameFreeLocked(f) {
		return 0, ErrFrameInUse
	}
	buf, err := m.migOpen.Open(nil, ms.Seq, ms.Cipher, []byte("SECS"))
	if err != nil || len(buf) != 80 {
		return 0, ErrSealBroken
	}
	eid := m.nextEID
	m.nextEID++
	e := &enclaveControl{
		id:        eid,
		sizePages: int(binary.LittleEndian.Uint64(buf[0:])),
		nssa:      uint32(binary.LittleEndian.Uint64(buf[8:])),
		prog:      prog,
		measure:   sha256.New(),
		secs:      f,
		pageTable: make(map[PageNum]FrameIndex),
		inited:    true,
		migFrozen: true,
	}
	copy(e.mrenclave[:], buf[16:48])
	copy(e.migDigest[:], buf[48:80])
	m.frames[f].set(frame{valid: true, eid: eid, ptype: PTSecs})
	m.enclaves[eid] = e
	return eid, nil
}

// ESWPIN installs a migrated page into the frozen target enclave.
func (m *Machine) ESWPIN(f FrameIndex, eid EnclaveID, mp *MigratedPage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.frozenLocked(eid)
	if err != nil {
		return err
	}
	if mp == nil {
		return ErrSealBroken
	}
	if !m.frameFreeLocked(f) {
		return ErrFrameInUse
	}
	if _, dup := e.pageTable[mp.Lin]; dup {
		return ErrPageConflict
	}
	if err := openFrame(&m.frames[f], m.migOpen, mp.Seq, mp.Cipher, migAAD(mp.Lin, mp.Type, mp.Perm), eid, mp.Lin, mp.Type, mp.Perm); err != nil {
		return err
	}
	e.pageTable[mp.Lin] = f
	return nil
}

// ECHANGEIN converts a migrated page into an EWB blob sealed under THIS
// machine's page key, parking it in untrusted memory instead of EPC (the
// mirror image of ECHANGEOUT). The enclave must already exist here.
func (m *Machine) ECHANGEIN(eid EnclaveID, mp *MigratedPage, vaFrame FrameIndex, slot int) (*EvictedPage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.frozenLocked(eid)
	if err != nil {
		return nil, err
	}
	if mp == nil {
		return nil, ErrSealBroken
	}
	if _, dup := e.pageTable[mp.Lin]; dup {
		return nil, ErrPageConflict
	}
	va, err := m.vaSlotLocked(vaFrame, slot)
	if err != nil {
		return nil, err
	}
	if va.slots[slot] != 0 {
		return nil, ErrVASlot
	}
	plaintext, err := m.migOpen.Open(nil, mp.Seq, mp.Cipher, migAAD(mp.Lin, mp.Type, mp.Perm))
	if err != nil {
		return nil, ErrSealBroken
	}
	version := m.nextVer
	m.nextVer++
	cipher := m.pageSealer.Seal(nil, version, plaintext, m.evictAADLocked(eid, mp.Lin, mp.Type, mp.Perm))
	va.slots[slot] = version
	return &EvictedPage{Enclave: eid, Lin: mp.Lin, Type: mp.Type, Perm: mp.Perm, Version: version, Cipher: cipher}, nil
}

// EMIGRATEDONE verifies the migrated enclave's complete state against the
// digest carried in the SECS and, on success, unfreezes it. On the source
// machine it is also the only way to unfreeze after a cancelled migration.
func (m *Machine) EMIGRATEDONE(eid EnclaveID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.frozenLocked(eid)
	if err != nil {
		return err
	}
	digest, err := m.stateDigestLocked(e)
	if err != nil {
		return err
	}
	if !bytes.Equal(digest[:], e.migDigest[:]) {
		return ErrStateDigest
	}
	e.migFrozen = false
	e.migDigest = [32]byte{}
	return nil
}
