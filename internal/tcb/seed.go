package tcb

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"fmt"
)

// Enclave trusted code cannot hold Go objects across entries: everything it
// keeps must round-trip through enclave memory bytes. These helpers
// reconstruct identities and DH keys from 32-byte seeds stored in (and
// migrated with) enclave pages.

// SeedSize is the byte size of key seeds.
const SeedSize = 32

// NewSigningIdentityFromSeed deterministically rebuilds an Ed25519 identity.
func NewSigningIdentityFromSeed(seed [SeedSize]byte) *SigningIdentity {
	priv := ed25519.NewKeyFromSeed(seed[:])
	pub := priv.Public().(ed25519.PublicKey)
	return &SigningIdentity{pub: pub, priv: priv}
}

// NewSigningIdentityFromPair rebuilds an Ed25519 identity from a seed and
// its public key without deriving the key again (a fixed-base scalar
// multiplication and a SHA-512). The pair is not checked here: the caller
// must already know that pub is seed's public key, e.g. because it checked
// the pair when the seed was installed. Ed25519 signing is deterministic,
// so the signatures are byte-identical to NewSigningIdentityFromSeed's.
func NewSigningIdentityFromPair(seed [SeedSize]byte, pub PublicKey) *SigningIdentity {
	priv := make(ed25519.PrivateKey, ed25519.PrivateKeySize)
	copy(priv, seed[:])
	copy(priv[SeedSize:], pub[:])
	return &SigningIdentity{pub: ed25519.PublicKey(priv[SeedSize:]), priv: priv}
}

// RandomSeed returns a fresh random seed.
func RandomSeed() ([SeedSize]byte, error) {
	var s [SeedSize]byte
	b, err := RandomBytes(SeedSize)
	if err != nil {
		return s, err
	}
	copy(s[:], b)
	return s, nil
}

// NewDHKeyPairFromSeed deterministically rebuilds an X25519 key pair from a
// 32-byte private scalar seed.
func NewDHKeyPairFromSeed(seed [SeedSize]byte) (*DHKeyPair, error) {
	priv, err := ecdh.X25519().NewPrivateKey(seed[:])
	if err != nil {
		return nil, fmt.Errorf("tcb: DH key from seed: %w", err)
	}
	dhDone(DHKeyPairBuilt)
	return &DHKeyPair{priv: priv}, nil
}
