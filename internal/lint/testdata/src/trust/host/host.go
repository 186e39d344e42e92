// Package host is the untrusted fixture package.
package host

import "fxtrust/sgx"

// Forge violates the trust boundary twice: it constructs a sealed page and
// mutates one of its fields.
func Forge() *sgx.EvictedPage {
	ev := sgx.EvictedPage{Version: 7}
	ev.Cipher = []byte{1}
	return &ev
}

// Relay is the legitimate host role: hold and forward sealed blobs opaquely.
func Relay() *sgx.EvictedPage {
	ev := sgx.MintEvicted()
	_ = ev.Version
	return ev
}

// Suppressed shows a justified suppression (e.g. an adversary model that
// deliberately forges state to prove the defences reject it).
func Suppressed() *sgx.EvictedPage {
	//lint:ignore trustboundary fixture adversary forges state to prove the target rejects it
	return &sgx.EvictedPage{Version: 9}
}

// Bundle is an untrusted structure that carries a sealed page by value, as
// a host's image registry carries an image's SIGSTRUCT.
type Bundle struct {
	Page sgx.EvictedPage
}

// Rebrand writes a field of the sealed page through the bundle that carries
// it: the shape of a target overwriting its registry's SIGSTRUCT in place,
// which spoils the entry for every later migration of the image.
func Rebrand(b *Bundle, v uint64) {
	b.Page.Version = v
}
