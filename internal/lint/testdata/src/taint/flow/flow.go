// Package flow exercises the plainflow rule.
package flow

import (
	"log"

	"fxtaint/crypt"
)

// LeakDirect sends decrypted bytes straight out: the basic positive case.
func LeakDirect(sealed []byte) {
	p, _ := crypt.Decrypt(sealed)
	crypt.SendOut(p)
}

// LeakVia propagates through append and slicing before leaking.
func LeakVia(sealed []byte) {
	p, _ := crypt.Decrypt(sealed)
	buf := append([]byte("hdr: "), p...)
	crypt.SendOut(buf[4:])
}

// LeakLog leaks through the logging sink.
func LeakLog(sealed []byte) {
	p, _ := crypt.Decrypt(sealed)
	log.Printf("plaintext=%x", p)
}

// relay is a thin wrapper around the sink; the call summary makes its
// parameter a sink too.
func relay(b []byte) { crypt.SendOut(b) }

// LeakWrapped leaks through the wrapper.
func LeakWrapped(sealed []byte) {
	p, _ := crypt.Decrypt(sealed)
	relay(p)
}

// fetch returns decrypted bytes; the call summary taints its result.
func fetch(sealed []byte) []byte {
	p, _ := crypt.Decrypt(sealed)
	return p
}

// LeakReturned leaks a summary-tainted result.
func LeakReturned(sealed []byte) {
	crypt.SendOut(fetch(sealed))
}

// SealedOK re-encrypts before sending: the negative case.
func SealedOK(sealed []byte) {
	p, _ := crypt.Decrypt(sealed)
	crypt.SendOut(crypt.Encrypt(p))
}

// SuppressedOK carries a justified suppression.
func SuppressedOK(sealed []byte) {
	p, _ := crypt.Decrypt(sealed)
	//lint:ignore plainflow fixture demonstrates a justified suppression
	crypt.SendOut(p)
}

// LeakStore installs the plaintext where it belongs and also copies it to
// untrusted memory, as a key-install step that echoes the key would.
func LeakStore(env *crypt.Env, key *[32]byte, sealed []byte) {
	p, _ := crypt.Decrypt(sealed)
	copy(key[:], p)
	_ = env.OutsideStore(0, p)
}
