package enclave

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/attest"
	"repro/internal/sgx"
	"repro/internal/tcb"
)

// Fixed binary codecs for the structures that cross the enclave boundary
// through untrusted shared memory. Everything decoded here is attacker
// controlled; the decoders validate lengths and the callers validate
// semantics (signatures, MACs, measurements).

// Encoded sizes.
const (
	ReportWireSize = 32 + 32 + 64 + 32 + 32
	QuoteWireSize  = 32 + 32 + 64 + 32 + 64
	VerdictWire    = 64
)

var errShortWire = errors.New("enclave: truncated wire structure")

// MarshalReport encodes an sgx.Report.
func MarshalReport(r sgx.Report) []byte {
	out := make([]byte, 0, ReportWireSize)
	out = append(out, r.Measurement[:]...)
	out = append(out, r.Signer[:]...)
	out = append(out, r.Data[:]...)
	out = append(out, r.Target[:]...)
	out = append(out, r.MAC[:]...)
	return out
}

// UnmarshalReport decodes an sgx.Report.
func UnmarshalReport(b []byte) (sgx.Report, error) {
	var r sgx.Report
	if len(b) < ReportWireSize {
		return r, errShortWire
	}
	copy(r.Measurement[:], b[0:32])
	copy(r.Signer[:], b[32:64])
	copy(r.Data[:], b[64:128])
	copy(r.Target[:], b[128:160])
	copy(r.MAC[:], b[160:192])
	return r, nil
}

// MarshalQuote encodes an sgx.Quote.
func MarshalQuote(q sgx.Quote) []byte {
	out := make([]byte, 0, QuoteWireSize)
	out = append(out, q.Measurement[:]...)
	out = append(out, q.Signer[:]...)
	out = append(out, q.Data[:]...)
	out = append(out, q.Machine[:]...)
	out = append(out, q.Sig[:]...)
	return out
}

// UnmarshalQuote decodes an sgx.Quote.
func UnmarshalQuote(b []byte) (sgx.Quote, error) {
	var q sgx.Quote
	if len(b) < QuoteWireSize {
		return q, errShortWire
	}
	copy(q.Measurement[:], b[0:32])
	copy(q.Signer[:], b[32:64])
	copy(q.Data[:], b[64:128])
	copy(q.Machine[:], b[128:160])
	copy(q.Sig[:], b[160:224])
	return q, nil
}

// MarshalVerdict encodes an attestation verdict.
func MarshalVerdict(v attest.Verdict) []byte {
	out := make([]byte, VerdictWire)
	copy(out, v.Sig[:])
	return out
}

// UnmarshalVerdict decodes an attestation verdict.
func UnmarshalVerdict(b []byte) (attest.Verdict, error) {
	var v attest.Verdict
	if len(b) < VerdictWire {
		return v, errShortWire
	}
	copy(v.Sig[:], b[:64])
	return v, nil
}

// CheckpointHeader is the plaintext header of an enclave checkpoint. It is
// integrity protected as part of every record's AEAD additional data, and
// the security-critical fields (flags, CSSA rebuild targets) are *also*
// re-verified in-enclave against the restored control page, so a forged
// header cannot survive to resume (P-2, P-3).
type CheckpointHeader struct {
	Measurement [32]byte
	TotalPages  uint32
	Threads     uint32
	Cipher      tcb.CheckpointCipher
	OwnerKeyed  bool // Sec. V-C checkpoint (Kencrypt) vs migration (Kmigrate)
	// Salt is fresh per checkpoint; the records' keys derive from it and the
	// checkpoint key (tcb.LeafSealer).
	Salt  [tcb.SaltSize]byte
	Flags []uint8
	MigK  []uint32
}

const ckptMagic = 0x434b505432 // "CKPT2"

// ckptFixedWire is the header's size before its per-thread entries.
const ckptFixedWire = 8 + 32 + 4 + 4 + 1 + 1 + tcb.SaltSize

// MarshalHeader encodes a checkpoint header.
func MarshalHeader(h CheckpointHeader) []byte {
	out := make([]byte, 0, HeaderWireSize(int(h.Threads)))
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], ckptMagic)
	out = append(out, u64[:]...)
	out = append(out, h.Measurement[:]...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], h.TotalPages)
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], h.Threads)
	out = append(out, u32[:]...)
	out = append(out, byte(h.Cipher))
	if h.OwnerKeyed {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, h.Salt[:]...)
	for i := 0; i < int(h.Threads); i++ {
		out = append(out, h.Flags[i])
		binary.LittleEndian.PutUint32(u32[:], h.MigK[i])
		out = append(out, u32[:]...)
	}
	return out
}

// UnmarshalHeader decodes a checkpoint header, returning the remaining bytes
// (the sealed records).
func UnmarshalHeader(b []byte) (CheckpointHeader, []byte, error) {
	var h CheckpointHeader
	if len(b) < ckptFixedWire {
		return h, nil, errShortWire
	}
	if binary.LittleEndian.Uint64(b[0:8]) != ckptMagic {
		return h, nil, fmt.Errorf("enclave: bad checkpoint magic")
	}
	copy(h.Measurement[:], b[8:40])
	h.TotalPages = binary.LittleEndian.Uint32(b[40:44])
	h.Threads = binary.LittleEndian.Uint32(b[44:48])
	h.Cipher = tcb.CheckpointCipher(b[48])
	h.OwnerKeyed = b[49] == 1
	copy(h.Salt[:], b[50:ckptFixedWire])
	if h.Threads > maxThreads {
		return h, nil, fmt.Errorf("enclave: absurd thread count %d", h.Threads)
	}
	rest := b[ckptFixedWire:]
	if len(rest) < int(h.Threads)*5 {
		return h, nil, errShortWire
	}
	h.Flags = make([]uint8, h.Threads)
	h.MigK = make([]uint32, h.Threads)
	for i := 0; i < int(h.Threads); i++ {
		h.Flags[i] = rest[0]
		h.MigK[i] = binary.LittleEndian.Uint32(rest[1:5])
		rest = rest[5:]
	}
	return h, rest, nil
}

// HeaderWireSize returns the encoded header size for a thread count.
func HeaderWireSize(threads int) int { return ckptFixedWire + threads*5 }
