package tcb

import (
	"crypto/des"
	"crypto/rc4"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// CheckpointCipher selects the cipher used to protect a checkpoint blob.
// The paper evaluates RC4 (~200 µs / 20 KiB) and DES (~300 µs / 20 KiB) for
// Fig. 9(c), and AES-NI-backed AES for the Fig. 11 memcached experiment. The
// default and only recommended option is AES-GCM; RC4 and DES are retained
// purely to reproduce the paper's measurements and both are wrapped in an
// encrypt-then-MAC envelope so the integrity property (P-2) holds for every
// cipher choice.
type CheckpointCipher int

// Supported checkpoint ciphers.
const (
	CipherAESGCM CheckpointCipher = iota + 1
	CipherRC4
	CipherDES
)

// String returns the cipher's display name.
func (c CheckpointCipher) String() string {
	switch c {
	case CipherAESGCM:
		return "aes-gcm"
	case CipherRC4:
		return "rc4"
	case CipherDES:
		return "des-cbc"
	default:
		return fmt.Sprintf("cipher(%d)", int(c))
	}
}

var errUnknownCipher = errors.New("tcb: unknown checkpoint cipher")

// SaltSize is the width of a checkpoint's salt: fresh random bytes, carried
// in the plaintext header, from which the checkpoint's record keys derive.
const SaltSize = 32

// LeafSealer seals and opens the records of one checkpoint. A checkpoint is
// a sequence of records, each sealed on its own so that many cores can seal
// and open them at once, and each bound to its place by its additional
// data: header ‖ index ‖ count. The checkpoint key may be long-lived — the
// owner's Kencrypt seals every owner checkpoint of an enclave (Sec. V-C) —
// so no record is sealed under it directly. Everything derives from a
// subkey of (key, salt), and the salt is fresh per checkpoint: under AES-GCM
// the record index is the nonce counter of a key no other checkpoint uses;
// RC4 and DES-CBC derive an encryption and a MAC key per record from it
// (encrypt-then-MAC). A LeafSealer is safe for concurrent use and holds key
// material: it must be guarded like the key itself.
type LeafSealer struct {
	c    CheckpointCipher
	sub  Key
	aead *Sealer // AES-GCM only
}

// NewLeafSealer derives the record keys of the checkpoint salted with salt.
func NewLeafSealer(c CheckpointCipher, key Key, salt []byte) (*LeafSealer, error) {
	if _, err := LeafSize(c, 0); err != nil {
		return nil, err
	}
	s := &LeafSealer{c: c, sub: DeriveKey(key, "checkpoint-records", salt)}
	if c == CipherAESGCM {
		aead, err := NewSealer(s.sub)
		if err != nil {
			return nil, err
		}
		s.aead = aead
	}
	return s, nil
}

// LeafSize is the sealed size of an n-byte record under c. A record is
// sealed in place: the ciphertext replaces the plaintext at the front and
// the tag (for DES, the padding and then the tag) follows.
func LeafSize(c CheckpointCipher, n int) (int, error) {
	switch c {
	case CipherAESGCM:
		return n + SealOverhead, nil
	case CipherRC4:
		return n + sha256.Size, nil
	case CipherDES:
		return n + desPad(n) + sha256.Size, nil
	default:
		return 0, errUnknownCipher
	}
}

// leafAAD is a record's additional data: the checkpoint header, then the
// record's index and the checkpoint's record count, both u32 LE.
func leafAAD(header []byte, index, count uint32) []byte {
	aad := make([]byte, 0, len(header)+8)
	aad = append(aad, header...)
	aad = binary.LittleEndian.AppendUint32(aad, index)
	return binary.LittleEndian.AppendUint32(aad, count)
}

// leafKeys derives record index's encryption and MAC keys for the legacy
// ciphers.
func (s *LeafSealer) leafKeys(label string, index uint32) (enc, mac Key) {
	idx := binary.LittleEndian.AppendUint32(nil, index)
	return DeriveKey(s.sub, label+"-enc", idx), DeriveKey(s.sub, label+"-mac", idx)
}

// Seal seals record index of count in place: env is LeafSize(c, n) bytes
// with the n plaintext bytes at its front, and holds the sealed record on
// return. header is the checkpoint's plaintext header.
func (s *LeafSealer) Seal(env []byte, n int, header []byte, index, count uint32) error {
	size, err := LeafSize(s.c, n)
	if err != nil {
		return err
	}
	if n < 0 || len(env) != size {
		return fmt.Errorf("tcb: checkpoint record is %d bytes, %d-byte plaintext needs %d", len(env), n, size)
	}
	aad := leafAAD(header, index, count)
	switch s.c {
	case CipherAESGCM:
		s.aead.Seal(env[:0], uint64(index), env[:n], aad)
	case CipherRC4:
		enc, mac := s.leafKeys("rc4", index)
		if err := rc4Apply(enc, env[:n], env[:n]); err != nil {
			return err
		}
		putMAC(mac, env, n, aad)
	case CipherDES:
		enc, mac := s.leafKeys("des", index)
		ct := env[:n+desPad(n)]
		if err := desEncrypt(enc, ct, env[:n]); err != nil {
			return err
		}
		putMAC(mac, env, len(ct), aad)
	}
	return nil
}

// Open reverses Seal in place: the plaintext overwrites the ciphertext and
// the result aliases env, whose contents are consumed either way. It returns
// ErrDecrypt for a record that is not record index of count of the
// checkpoint with this header, key and salt. The caller must own env
// exclusively — inside an enclave that means its private copy, never
// shared memory.
func (s *LeafSealer) Open(env []byte, header []byte, index, count uint32) ([]byte, error) {
	aad := leafAAD(header, index, count)
	switch s.c {
	case CipherAESGCM:
		return s.aead.Open(env[:0], uint64(index), env, aad)
	case CipherRC4:
		enc, mac := s.leafKeys("rc4", index)
		ct, err := splitMAC(mac, env, aad)
		if err != nil {
			return nil, err
		}
		if err := rc4Apply(enc, ct, ct); err != nil {
			return nil, err
		}
		return ct, nil
	default: // CipherDES; NewLeafSealer refused anything else
		enc, mac := s.leafKeys("des", index)
		ct, err := splitMAC(mac, env, aad)
		if err != nil {
			return nil, err
		}
		return desDecrypt(enc, ct, ct)
	}
}

// EncryptCheckpoint seals plaintext as a one-record checkpoint under key,
// binding additional data as the header: salt ‖ sealed record, under a
// fresh salt. All variants provide integrity: AES-GCM natively, RC4/DES via
// encrypt-then-HMAC.
func EncryptCheckpoint(c CheckpointCipher, key Key, plaintext, additional []byte) ([]byte, error) {
	size, err := LeafSize(c, len(plaintext))
	if err != nil {
		return nil, err
	}
	out := make([]byte, SaltSize+size)
	if _, err := RandomNonce(out[:SaltSize]); err != nil {
		return nil, err
	}
	s, err := NewLeafSealer(c, key, out[:SaltSize])
	if err != nil {
		return nil, err
	}
	env := out[SaltSize:]
	copy(env, plaintext)
	if err := s.Seal(env, len(plaintext), additional, 0, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptCheckpoint reverses EncryptCheckpoint into fresh storage, returning
// ErrDecrypt on any integrity failure. sealed is not modified.
func DecryptCheckpoint(c CheckpointCipher, key Key, sealed, additional []byte) ([]byte, error) {
	if len(sealed) < SaltSize {
		return nil, ErrDecrypt
	}
	s, err := NewLeafSealer(c, key, sealed[:SaltSize])
	if err != nil {
		return nil, err
	}
	return s.Open(append([]byte(nil), sealed[SaltSize:]...), additional, 0, 1)
}

// putMAC writes the encrypt-then-MAC tag over env[:n] and additional right
// behind the ciphertext.
func putMAC(macKey Key, env []byte, n int, additional []byte) {
	tag := MAC(macKey, env[:n], additional)
	copy(env[n:], tag[:])
}

func splitMAC(macKey Key, sealed, additional []byte) ([]byte, error) {
	if len(sealed) < sha256.Size {
		return nil, ErrDecrypt
	}
	ct, tagBytes := sealed[:len(sealed)-sha256.Size], sealed[len(sealed)-sha256.Size:]
	var tag [32]byte
	copy(tag[:], tagBytes)
	if !VerifyMAC(macKey, tag, ct, additional) {
		return nil, ErrDecrypt
	}
	return ct, nil
}

// rc4Apply XORs the key stream over src into dst (same length; dst may be
// src).
func rc4Apply(key Key, dst, src []byte) error {
	c, err := rc4.NewCipher(key[:])
	if err != nil {
		return fmt.Errorf("tcb: rc4: %w", err)
	}
	c.XORKeyStream(dst, src)
	return nil
}

// desPad is the PKCS#7 padding length for an n-byte plaintext (1..8).
func desPad(n int) int { return des.BlockSize - n%des.BlockSize }

// desEncrypt implements DES-CBC with PKCS#7 padding and a zero IV derived
// key-uniquely; the envelope MAC provides integrity. DES is retained only to
// reproduce the paper's Fig. 9(c) cipher comparison. dst is
// len(plaintext)+desPad(len(plaintext)) bytes and may start at plaintext's
// own storage: each block is read before it is written.
func desEncrypt(key Key, dst, plaintext []byte) error {
	block, err := des.NewCipher(key[:8])
	if err != nil {
		return fmt.Errorf("tcb: des: %w", err)
	}
	const bs = des.BlockSize
	pad := byte(len(dst) - len(plaintext))
	iv := DeriveKey(key, "iv")
	prev := iv[:bs]
	var in [bs]byte
	for i := 0; i < len(dst); i += bs {
		n := copy(in[:], plaintext[min(i, len(plaintext)):])
		for j := n; j < bs; j++ {
			in[j] = pad
		}
		for j := range in {
			in[j] ^= prev[j]
		}
		block.Encrypt(dst[i:i+bs], in[:])
		prev = dst[i : i+bs]
	}
	return nil
}

// desDecrypt reverses desEncrypt into dst (len(ciphertext) bytes; may be
// ciphertext itself) and returns the unpadded plaintext within dst.
func desDecrypt(key Key, dst, ciphertext []byte) ([]byte, error) {
	block, err := des.NewCipher(key[:8])
	if err != nil {
		return nil, fmt.Errorf("tcb: des: %w", err)
	}
	const bs = des.BlockSize
	if len(ciphertext) == 0 || len(ciphertext)%bs != 0 {
		return nil, ErrDecrypt
	}
	iv := DeriveKey(key, "iv")
	var prev, cur [bs]byte
	copy(prev[:], iv[:bs])
	for i := 0; i < len(ciphertext); i += bs {
		copy(cur[:], ciphertext[i:i+bs])
		block.Decrypt(dst[i:i+bs], cur[:])
		for j := range prev {
			dst[i+j] ^= prev[j]
		}
		prev = cur
	}
	pad := int(dst[len(dst)-1])
	if pad == 0 || pad > bs || pad > len(dst) {
		return nil, ErrDecrypt
	}
	for _, b := range dst[len(dst)-pad:] {
		if int(b) != pad {
			return nil, ErrDecrypt
		}
	}
	return dst[:len(dst)-pad], nil
}
