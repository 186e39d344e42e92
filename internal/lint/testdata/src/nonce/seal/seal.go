// Package seal exercises the cryptononce rule against real crypto/cipher
// AEAD call sites.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"io"
)

// RandomBytes is this fixture's approved random source.
func RandomBytes(n int) []byte {
	b := make([]byte, n)
	_, _ = io.ReadFull(rand.Reader, b)
	return b
}

// counterNonce is this fixture's approved deterministic construction.
func counterNonce(counter uint64, size int) []byte {
	nonce := make([]byte, size)
	for i := 0; i < 8 && i < size; i++ {
		nonce[size-1-i] = byte(counter >> (8 * i))
	}
	return nonce
}

func gcm() cipher.AEAD {
	block, _ := aes.NewCipher(make([]byte, 32))
	g, _ := cipher.NewGCM(block)
	return g
}

// GoodRandom seals with a fresh random nonce bound through an identifier.
func GoodRandom(pt, aad []byte) []byte {
	g := gcm()
	nonce := RandomBytes(g.NonceSize())
	return g.Seal(nil, nonce, pt, aad)
}

// GoodCounter passes the approved constructor call directly.
func GoodCounter(v uint64, pt, aad []byte) []byte {
	g := gcm()
	return g.Seal(nil, counterNonce(v, g.NonceSize()), pt, aad)
}

// BadFixed seals under an all-zero nonce: reusing it under one key is the
// classic GCM catastrophe.
func BadFixed(pt, aad []byte) []byte {
	g := gcm()
	nonce := make([]byte, 12)
	return g.Seal(nil, nonce, pt, aad)
}

// BadAAD derives a fine nonce but binds no additional data.
func BadAAD(pt []byte) []byte {
	g := gcm()
	return g.Seal(nil, RandomBytes(g.NonceSize()), pt, nil)
}

// SuppressedFixed shows a justified suppression of a fixed nonce.
func SuppressedFixed(pt, aad []byte) []byte {
	g := gcm()
	nonce := []byte("unique-per-key!!")[:12]
	//lint:ignore cryptononce the key is single-use in this construction, so the fixed nonce cannot repeat
	return g.Seal(nil, nonce, pt, aad)
}

// BadEnvelope seals in place under the envelope's own nonce field, zeroed
// where it should have been drawn: every envelope repeats one nonce.
func BadEnvelope(env, pt, aad []byte) {
	g := gcm()
	nonce := env[:g.NonceSize()]
	clear(nonce)
	g.Seal(env[:g.NonceSize()], nonce, pt, aad)
}
