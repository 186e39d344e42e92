// Package tcb provides the cryptographic primitives used by the trusted
// computing base of the simulated SGX platform: authenticated sealing,
// key derivation, Diffie-Hellman key agreement, signing identities and the
// legacy checkpoint ciphers evaluated by the paper (RC4, DES) alongside the
// default AES-GCM.
//
// Everything here wraps the Go standard library; no crypto is hand rolled
// except the RC4 keystream (crypto/rc4 is stdlib as well, but we route it
// through the same StreamCipher interface used for benchmarks).
package tcb

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
)

// KeySize is the size in bytes of all symmetric keys used by the TCB.
const KeySize = 32

// Key is a 256-bit symmetric key.
type Key [KeySize]byte

var (
	// ErrDecrypt indicates an authenticated decryption failure: either the
	// ciphertext was tampered with or the wrong key was used.
	ErrDecrypt = errors.New("tcb: authenticated decryption failed")
	// ErrBadSignature indicates a signature that does not verify.
	ErrBadSignature = errors.New("tcb: signature verification failed")
)

// RandomKey returns a fresh random key from crypto/rand.
func RandomKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("tcb: read random key: %w", err)
	}
	return k, nil
}

// RandomBytes returns n fresh random bytes.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return nil, fmt.Errorf("tcb: read random bytes: %w", err)
	}
	return b, nil
}

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) [32]byte { return sha256.Sum256(data) }

// HashConcat hashes the concatenation of the given byte slices.
func HashConcat(parts ...[]byte) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// DeriveKey derives a subkey from a root key, a purpose label and optional
// context bytes using HMAC-SHA256 (a single-block HKDF-Expand).
func DeriveKey(root Key, purpose string, context ...[]byte) Key {
	mac := hmac.New(sha256.New, root[:])
	mac.Write([]byte(purpose))
	for _, c := range context {
		mac.Write([]byte{byte(len(c)), byte(len(c) >> 8)})
		mac.Write(c)
	}
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}

// MAC computes HMAC-SHA256 over data under key.
func MAC(key Key, data ...[]byte) [32]byte {
	mac := hmac.New(sha256.New, key[:])
	for _, d := range data {
		mac.Write(d)
	}
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// VerifyMAC reports whether tag is a valid HMAC-SHA256 over data under key,
// in constant time.
func VerifyMAC(key Key, tag [32]byte, data ...[]byte) bool {
	want := MAC(key, data...)
	return hmac.Equal(tag[:], want[:])
}

// Sealer is AES-256-GCM bound to one key. Expanding the AES key schedule and
// the GHASH tables costs about as much as sealing a page, so a caller that
// seals many blobs under one key (the EWB/ELDU page key, an installed
// migration key) builds a Sealer once and keeps it. A Sealer is safe for concurrent
// use and holds the expanded key: it must be guarded like the key itself.
type Sealer struct {
	aead cipher.AEAD
}

const (
	// nonceSize is the GCM nonce width every envelope in this package uses.
	nonceSize = 12
	// SealOverhead is the number of bytes sealing adds to a plaintext (the
	// GCM authentication tag).
	SealOverhead = 16
)

// NewSealer expands key into a reusable AES-256-GCM instance.
func NewSealer(key Key) (*Sealer, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("tcb: aes: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("tcb: gcm: %w", err)
	}
	return &Sealer{aead: aead}, nil
}

// noncePool lends counter-nonce scratch to Seal and Open: arguments of an
// interface method call escape, so a nonce array on the caller's stack
// would be one heap allocation per sealed page.
var noncePool = sync.Pool{New: func() any { return new([nonceSize]byte) }}

// Seal encrypts plaintext under an explicit 96-bit counter nonce, appends
// ciphertext and tag to dst and returns the extended slice; with
// len(plaintext)+SealOverhead spare capacity in dst it allocates nothing.
// The EWB path uses the page version as the counter, which binds the blob
// to its VA slot (anti-replay). A counter must never repeat under one key.
// plaintext and dst's spare capacity must overlap exactly or not at all.
func (s *Sealer) Seal(dst []byte, counter uint64, plaintext, additional []byte) []byte {
	buf := noncePool.Get().(*[nonceSize]byte)
	nonce := counterNonce(buf[:], counter)
	out := s.aead.Seal(dst, nonce, plaintext, additional)
	noncePool.Put(buf)
	return out
}

// Open reverses Seal, appending the plaintext to dst. It returns ErrDecrypt
// on any failure; dst's spare capacity may then hold garbage but nothing of
// the plaintext. sealed[:0] is a valid dst (decrypt in place).
func (s *Sealer) Open(dst []byte, counter uint64, sealed, additional []byte) ([]byte, error) {
	buf := noncePool.Get().(*[nonceSize]byte)
	nonce := counterNonce(buf[:], counter)
	out, err := s.aead.Open(dst, nonce, sealed, additional)
	noncePool.Put(buf)
	if err != nil {
		return nil, ErrDecrypt
	}
	return out, nil
}

// sealEnvelope fills env with nonce ‖ ciphertext ‖ tag under a fresh random
// nonce. env must be nonceSize+len(plaintext)+SealOverhead bytes; plaintext
// may be env[nonceSize:][:len(plaintext)] itself (sealed in place) or
// separate storage.
func (s *Sealer) sealEnvelope(env, plaintext, additional []byte) error {
	nonce, err := RandomNonce(env[:nonceSize])
	if err != nil {
		return err
	}
	s.aead.Seal(env[:nonceSize], nonce, plaintext, additional)
	return nil
}

// openEnvelope reverses sealEnvelope. With inPlace the plaintext overwrites
// the ciphertext inside sealed and the result aliases it; otherwise sealed
// is left untouched and the result is fresh storage.
func (s *Sealer) openEnvelope(sealed, additional []byte, inPlace bool) ([]byte, error) {
	if len(sealed) < nonceSize {
		return nil, ErrDecrypt
	}
	nonce, ct := sealed[:nonceSize], sealed[nonceSize:]
	var dst []byte
	if inPlace {
		dst = ct[:0]
	}
	pt, err := s.aead.Open(dst, nonce, ct, additional)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// RandomNonce fills nonce from crypto/rand and returns it.
func RandomNonce(nonce []byte) ([]byte, error) {
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("tcb: read random nonce: %w", err)
	}
	return nonce, nil
}

// counterNonce encodes counter big-endian into the low bytes of nonce,
// zeroes the rest and returns nonce.
func counterNonce(nonce []byte, counter uint64) []byte {
	clear(nonce)
	for i := 0; i < 8 && i < len(nonce); i++ {
		nonce[len(nonce)-1-i] = byte(counter >> (8 * i))
	}
	return nonce
}

// Seal encrypts plaintext with AES-256-GCM under key, binding the additional
// data. The nonce is random and prepended to the ciphertext.
func Seal(key Key, plaintext, additional []byte) ([]byte, error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	env := make([]byte, nonceSize+len(plaintext)+SealOverhead)
	if err := s.sealEnvelope(env, plaintext, additional); err != nil {
		return nil, err
	}
	return env, nil
}

// Open decrypts a Seal envelope. It returns ErrDecrypt on any failure.
func Open(key Key, sealed, additional []byte) ([]byte, error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	return s.openEnvelope(sealed, additional, false)
}

// SealDeterministic is Sealer.Seal for a single blob under key.
func SealDeterministic(key Key, counter uint64, plaintext, additional []byte) ([]byte, error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	return s.Seal(nil, counter, plaintext, additional), nil
}

// OpenDeterministic reverses SealDeterministic.
func OpenDeterministic(key Key, counter uint64, sealed, additional []byte) ([]byte, error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	return s.Open(nil, counter, sealed, additional)
}

// SigningIdentity is an Ed25519 key pair used for enclave-image signing
// (SIGSTRUCT), machine attestation keys and the attestation service key.
type SigningIdentity struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewSigningIdentity generates a fresh Ed25519 identity.
func NewSigningIdentity() (*SigningIdentity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tcb: generate signing identity: %w", err)
	}
	return &SigningIdentity{pub: pub, priv: priv}, nil
}

// Public returns the 32-byte public key.
func (s *SigningIdentity) Public() PublicKey {
	var pk PublicKey
	copy(pk[:], s.pub)
	return pk
}

// Sign signs the message.
func (s *SigningIdentity) Sign(msg []byte) Signature {
	var sig Signature
	copy(sig[:], ed25519.Sign(s.priv, msg))
	return sig
}

// PublicKey is a serialisable Ed25519 public key.
type PublicKey [ed25519.PublicKeySize]byte

// Signature is a serialisable Ed25519 signature.
type Signature [ed25519.SignatureSize]byte

// Verify checks sig over msg under pk.
func Verify(pk PublicKey, msg []byte, sig Signature) error {
	if !ed25519.Verify(pk[:], msg, sig[:]) {
		return ErrBadSignature
	}
	return nil
}
