package tcb

import (
	"crypto/des"
	"crypto/rc4"
	"crypto/sha256"
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

// CheckpointLayout reports where an n-byte plaintext sits inside its sealed
// envelope under cipher c: the envelope is size bytes and the ciphertext
// replaces the plaintext at offset lead (AES-GCM puts its nonce in front;
// every cipher appends its tag, DES its padding too).
func CheckpointLayout(c CheckpointCipher, n int) (lead, size int, err error) {
	switch c {
	case CipherAESGCM:
		return nonceSize, nonceSize + n + SealOverhead, nil
	case CipherRC4:
		return 0, n + sha256.Size, nil
	case CipherDES:
		return 0, n + desPad(n) + sha256.Size, nil
	default:
		return 0, 0, errUnknownCipher
	}
}

// EncryptCheckpoint seals plaintext under key with the selected cipher,
// binding additional data. All variants provide integrity: AES-GCM natively,
// RC4/DES via encrypt-then-HMAC.
func EncryptCheckpoint(c CheckpointCipher, key Key, plaintext, additional []byte) ([]byte, error) {
	_, size, err := CheckpointLayout(c, len(plaintext))
	if err != nil {
		return nil, err
	}
	env := make([]byte, size)
	if err := sealCheckpoint(c, key, env, plaintext, additional); err != nil {
		return nil, err
	}
	return env, nil
}

// SealCheckpointInPlace is EncryptCheckpoint without a second buffer: env is
// the whole envelope as sized by CheckpointLayout(c, n), the caller has
// written the n plaintext bytes at env[lead:], and on return env holds the
// sealed form. additional may share env's allocation but must not overlap
// env itself.
func SealCheckpointInPlace(c CheckpointCipher, key Key, env []byte, n int, additional []byte) error {
	lead, size, err := CheckpointLayout(c, n)
	if err != nil {
		return err
	}
	if n < 0 || len(env) != size {
		return fmt.Errorf("tcb: checkpoint envelope is %d bytes, layout needs %d", len(env), size)
	}
	return sealCheckpoint(c, key, env, env[lead:lead+n], additional)
}

// sealCheckpoint fills env (sized by CheckpointLayout) from plaintext, which
// either is env[lead:lead+n] itself or does not overlap env at all.
func sealCheckpoint(c CheckpointCipher, key Key, env, plaintext, additional []byte) error {
	n := len(plaintext)
	switch c {
	case CipherAESGCM:
		s, err := NewSealer(key)
		if err != nil {
			return err
		}
		return s.sealEnvelope(env, plaintext, additional)
	case CipherRC4:
		if err := rc4Apply(DeriveKey(key, "rc4-enc"), env[:n], plaintext); err != nil {
			return err
		}
		putMAC(DeriveKey(key, "rc4-mac"), env, n, additional)
		return nil
	case CipherDES:
		ct := env[:n+desPad(n)]
		if err := desEncrypt(DeriveKey(key, "des-enc"), ct, plaintext); err != nil {
			return err
		}
		putMAC(DeriveKey(key, "des-mac"), env, len(ct), additional)
		return nil
	default:
		return errUnknownCipher
	}
}

// DecryptCheckpoint reverses EncryptCheckpoint into fresh storage, returning
// ErrDecrypt on any integrity failure. sealed is not modified.
func DecryptCheckpoint(c CheckpointCipher, key Key, sealed, additional []byte) ([]byte, error) {
	return openCheckpoint(c, key, sealed, additional, false)
}

// OpenCheckpointInPlace is DecryptCheckpoint without a second buffer: the
// plaintext overwrites the ciphertext and the result aliases sealed, whose
// contents are consumed either way. The caller must own sealed exclusively —
// inside an enclave that means its private copy, never shared memory.
func OpenCheckpointInPlace(c CheckpointCipher, key Key, sealed, additional []byte) ([]byte, error) {
	return openCheckpoint(c, key, sealed, additional, true)
}

func openCheckpoint(c CheckpointCipher, key Key, sealed, additional []byte, inPlace bool) ([]byte, error) {
	switch c {
	case CipherAESGCM:
		s, err := NewSealer(key)
		if err != nil {
			return nil, err
		}
		return s.openEnvelope(sealed, additional, inPlace)
	case CipherRC4:
		ct, err := splitMAC(DeriveKey(key, "rc4-mac"), sealed, additional)
		if err != nil {
			return nil, err
		}
		pt := openDst(ct, inPlace)
		if err := rc4Apply(DeriveKey(key, "rc4-enc"), pt, ct); err != nil {
			return nil, err
		}
		return pt, nil
	case CipherDES:
		ct, err := splitMAC(DeriveKey(key, "des-mac"), sealed, additional)
		if err != nil {
			return nil, err
		}
		return desDecrypt(DeriveKey(key, "des-enc"), openDst(ct, inPlace), ct)
	default:
		return nil, errUnknownCipher
	}
}

// openDst is where the legacy ciphers decrypt ct to: over itself, or into
// fresh storage.
func openDst(ct []byte, inPlace bool) []byte {
	if inPlace {
		return ct
	}
	return make([]byte, len(ct))
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
