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
	var plaintext, cipher []byte
	switch fr.ptype {
	case PTReg:
		plaintext, cipher = fr.data[:], m.spareBlobLocked()
	case PTTcs:
		if fr.tcs.active {
			return nil, ErrTCSActive
		}
		plaintext = fr.tcs.marshal()
		cipher = make([]byte, 0, tcsWireSize+tcb.SealOverhead)
	default:
		return nil, ErrPermission
	}
	version := m.nextVer
	m.nextVer++
	cipher = m.pageSealer.Seal(cipher, version, plaintext, m.evictAADLocked(fr.eid, fr.lin, fr.ptype, fr.perm))
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
	fr.set(frame{})
	return out, nil
}

// regBlobSize is the length of a sealed regular page.
const regBlobSize = PageSize + tcb.SealOverhead

// maxSpareBlobs bounds the sealed-page buffers a machine keeps for EWB.
// Paging in steady state gives one back and takes one per fault; a burst of
// reloads into free frames leaves the rest to the garbage collector.
const maxSpareBlobs = 64

// spareBlobLocked returns an empty buffer with room for a sealed regular
// page: one a successful ELDU gave back, or a new one.
func (m *Machine) spareBlobLocked() []byte {
	n := len(m.spareBlobs)
	if n == 0 {
		return make([]byte, 0, regBlobSize)
	}
	b := m.spareBlobs[n-1]
	m.spareBlobs[n-1] = nil
	m.spareBlobs = m.spareBlobs[:n-1]
	return b
}

// recycleBlobLocked takes back the buffer of a regular-page blob that ELDU
// has just consumed: the cleared VA slot makes the blob useless, so the
// machine keeps its buffer for the next EWB and drops the descriptor's
// reference to it.
func (m *Machine) recycleBlobLocked(ev *EvictedPage) {
	if ev.Type != PTReg || len(m.spareBlobs) >= maxSpareBlobs {
		return
	}
	m.spareBlobs = append(m.spareBlobs, ev.Cipher[:0:regBlobSize])
	ev.Cipher = nil
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

// openFrame authenticates a sealed REG or TCS page image and installs it in
// the free frame fr. A REG blob opens straight into the frame's own page, so
// its size is checked first; on error the frame stays free.
func openFrame(fr *frame, s *tcb.Sealer, counter uint64, cipher, aad []byte, eid EnclaveID, lin PageNum, pt PageType, perm Perm) error {
	switch pt {
	case PTReg:
		if len(cipher) != regBlobSize {
			return ErrSealBroken
		}
		if _, err := s.Open(fr.page()[:0], counter, cipher, aad); err != nil {
			return ErrSealBroken
		}
		fr.set(frame{valid: true, eid: eid, ptype: PTReg, lin: lin, perm: perm})
		return nil
	case PTTcs:
		plaintext, err := s.Open(nil, counter, cipher, aad)
		if err != nil || len(plaintext) != tcsWireSize {
			return ErrSealBroken
		}
		fr.set(frame{valid: true, eid: eid, ptype: PTTcs, lin: lin, tcs: unmarshalTCS(plaintext)})
		return nil
	default:
		return ErrSealBroken
	}
}

// ELDU loads an evicted page back into free frame f, verifying the blob
// against the version stored in the VA slot; on success the slot is cleared,
// so the same blob can never be loaded twice (anti-replay / anti-rollback at
// page granularity), and the machine takes a regular page's blob buffer back
// for the next EWB (ev.Cipher is nil afterwards). A failed ELDU consumes
// nothing.
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
	if err := openFrame(&m.frames[f], m.pageSealer, ev.Version, ev.Cipher, m.evictAADLocked(ev.Enclave, ev.Lin, ev.Type, ev.Perm),
		ev.Enclave, ev.Lin, ev.Type, ev.Perm); err != nil {
		return err
	}
	e.pageTable[ev.Lin] = f
	va.slots[slot] = 0
	m.recycleBlobLocked(ev)
	return nil
}
