package sgx

import (
	"encoding/binary"

	"repro/internal/tcb"
)

// EvictedPage is the untrusted-memory image of a page evicted with EWB: an
// AES-GCM ciphertext sealed under the machine's page-encryption key (which
// never leaves the CPU), the MAC (inside the AEAD envelope), and the version
// number whose anti-replay twin lives in a VA slot.
//
// Because the sealing key is per machine, an EvictedPage produced on machine
// A can never be ELDU'd on machine B — this is exactly why a guest OS cannot
// implement enclave migration by swapping pages out and shipping the images
// (paper Sec. II-B, Difference-1).
type EvictedPage struct {
	Enclave EnclaveID
	Lin     PageNum
	Type    PageType
	Perm    Perm
	Version uint64
	Cipher  []byte
}

// tcsBytes serialises the software-visible TCS params plus the hardware
// CSSA for EWB of TCS pages; it stays inside the sealed blob, so CSSA never
// becomes software-visible.
func (t *tcs) marshal() []byte {
	b := make([]byte, tcsWireSize)
	binary.LittleEndian.PutUint32(b[0:], t.params.Entry)
	binary.LittleEndian.PutUint32(b[4:], t.params.NSSA)
	binary.LittleEndian.PutUint32(b[8:], uint32(t.params.OSSA))
	binary.LittleEndian.PutUint32(b[12:], t.cssa)
	return b
}

func unmarshalTCS(b []byte) *tcs {
	return &tcs{
		params: TCSParams{
			Entry: binary.LittleEndian.Uint32(b[0:]),
			NSSA:  binary.LittleEndian.Uint32(b[4:]),
			OSSA:  PageNum(binary.LittleEndian.Uint32(b[8:])),
		},
		cssa: binary.LittleEndian.Uint32(b[12:]),
	}
}

// tcsWireSize is the length of a marshalled TCS.
const tcsWireSize = 20

// evictAADLocked encodes the identity an evicted blob is bound to into the
// machine's scratch; the result is valid until the next call.
func (m *Machine) evictAADLocked(eid EnclaveID, lin PageNum, pt PageType, perm Perm) []byte {
	aad := m.evictAAD[:]
	binary.LittleEndian.PutUint64(aad[0:], uint64(eid))
	binary.LittleEndian.PutUint32(aad[8:], uint32(lin))
	aad[12] = byte(pt)
	aad[13] = byte(perm)
	return aad
}

// EWB evicts the page in EPC frame f to untrusted memory, recording its
// version in slot `slot` of the VA page in frame vaFrame. REG and inactive
// TCS pages can be evicted.
func (m *Machine) EWB(f FrameIndex, vaFrame FrameIndex, slot int) (*EvictedPage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(f) < 0 || int(f) >= len(m.frames) {
		return nil, ErrBadFrame
	}
	fr := &m.frames[f]
	if !fr.valid {
		return nil, ErrFrameFree
	}
	va, err := m.vaSlotLocked(vaFrame, slot)
	if err != nil {
		return nil, err
	}
	if va.slots[slot] != 0 {
		return nil, ErrVASlot
	}
	var plaintext []byte
	switch fr.ptype {
	case PTReg:
		plaintext = fr.data[:]
	case PTTcs:
		if fr.tcs.active {
			return nil, ErrTCSActive
		}
		plaintext = fr.tcs.marshal()
	default:
		return nil, ErrPermission
	}
	version := m.nextVer
	m.nextVer++
	cipher := m.pageSealer.Seal(make([]byte, 0, len(plaintext)+tcb.SealOverhead), version, plaintext,
		m.evictAADLocked(fr.eid, fr.lin, fr.ptype, fr.perm))
	va.slots[slot] = version
	out := &EvictedPage{
		Enclave: fr.eid,
		Lin:     fr.lin,
		Type:    fr.ptype,
		Perm:    fr.perm,
		Version: version,
		Cipher:  cipher,
	}
	if e, ok := m.enclaves[fr.eid]; ok {
		delete(e.pageTable, fr.lin)
	}
	*fr = frame{}
	return out, nil
}

// vaSlotLocked validates a VA frame/slot pair.
func (m *Machine) vaSlotLocked(vaFrame FrameIndex, slot int) (*vaPage, error) {
	if int(vaFrame) < 0 || int(vaFrame) >= len(m.frames) {
		return nil, ErrBadFrame
	}
	vf := &m.frames[vaFrame]
	if !vf.valid || vf.ptype != PTVa {
		return nil, ErrNotVA
	}
	if slot < 0 || slot >= VASlotsPerPage {
		return nil, ErrVASlot
	}
	return vf.va, nil
}

// openFrame authenticates a sealed REG or TCS page image and returns the
// frame it becomes. A REG blob opens straight into the Page the frame will
// own, so its size is checked first; the caller installs the result, and on
// error there is nothing to undo.
func openFrame(s *tcb.Sealer, counter uint64, cipher, aad []byte, eid EnclaveID, lin PageNum, pt PageType, perm Perm) (frame, error) {
	switch pt {
	case PTReg:
		if len(cipher) != PageSize+tcb.SealOverhead {
			return frame{}, ErrSealBroken
		}
		data := &Page{}
		if _, err := s.Open(data[:0], counter, cipher, aad); err != nil {
			return frame{}, ErrSealBroken
		}
		return frame{valid: true, eid: eid, ptype: PTReg, lin: lin, perm: perm, data: data}, nil
	case PTTcs:
		plaintext, err := s.Open(nil, counter, cipher, aad)
		if err != nil || len(plaintext) != tcsWireSize {
			return frame{}, ErrSealBroken
		}
		return frame{valid: true, eid: eid, ptype: PTTcs, lin: lin, tcs: unmarshalTCS(plaintext)}, nil
	default:
		return frame{}, ErrSealBroken
	}
}

// ELDU loads an evicted page back into free frame f, verifying the blob
// against the version stored in the VA slot; on success the slot is cleared,
// so the same blob can never be loaded twice (anti-replay / anti-rollback at
// page granularity).
func (m *Machine) ELDU(f FrameIndex, ev *EvictedPage, vaFrame FrameIndex, slot int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ev == nil {
		return ErrSealBroken
	}
	if int(f) < 0 || int(f) >= len(m.frames) {
		return ErrBadFrame
	}
	if m.frames[f].valid {
		return ErrFrameInUse
	}
	e, ok := m.enclaves[ev.Enclave]
	if !ok {
		return ErrNoSuchEnclave
	}
	if _, dup := e.pageTable[ev.Lin]; dup {
		return ErrPageConflict
	}
	va, err := m.vaSlotLocked(vaFrame, slot)
	if err != nil {
		return err
	}
	if va.slots[slot] == 0 || va.slots[slot] != ev.Version {
		return ErrReplay
	}
	fr, err := openFrame(m.pageSealer, ev.Version, ev.Cipher, m.evictAADLocked(ev.Enclave, ev.Lin, ev.Type, ev.Perm),
		ev.Enclave, ev.Lin, ev.Type, ev.Perm)
	if err != nil {
		return err
	}
	m.frames[f] = fr
	e.pageTable[ev.Lin] = f
	va.slots[slot] = 0
	return nil
}
