package tcb

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
)

// DHKeyPair is an X25519 key pair used for the migration secure channel
// (Sec. V-B of the paper) and for owner provisioning at enclave boot.
type DHKeyPair struct {
	priv *ecdh.PrivateKey
}

// DHPublic is a serialisable X25519 public key.
type DHPublic [32]byte

// DHOp names one X25519 scalar multiplication: building a key pair computes
// its public half, and a shared secret is the other.
type DHOp int

const (
	DHKeyPairBuilt DHOp = iota + 1
	DHSharedSecret
)

// DHHook, if set, sees every X25519 scalar multiplication this package makes.
// Tests use it to count a protocol's public-key work; it is nil otherwise.
var DHHook func(op DHOp)

func dhDone(op DHOp) {
	if DHHook != nil {
		DHHook(op)
	}
}

// NewDHKeyPair generates a fresh X25519 key pair.
func NewDHKeyPair() (*DHKeyPair, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tcb: generate DH key: %w", err)
	}
	dhDone(DHKeyPairBuilt)
	return &DHKeyPair{priv: priv}, nil
}

// Public returns the public half.
func (kp *DHKeyPair) Public() DHPublic {
	var pub DHPublic
	copy(pub[:], kp.priv.PublicKey().Bytes())
	return pub
}

// Shared computes the shared session key with the peer's public key, bound
// to a protocol label so source/target derive independent directions if
// needed.
func (kp *DHKeyPair) Shared(peer DHPublic, label string) (Key, error) {
	pub, err := ecdh.X25519().NewPublicKey(peer[:])
	if err != nil {
		return Key{}, fmt.Errorf("tcb: bad peer DH key: %w", err)
	}
	secret, err := kp.priv.ECDH(pub)
	if err != nil {
		return Key{}, fmt.Errorf("tcb: ECDH: %w", err)
	}
	dhDone(DHSharedSecret)
	var root Key
	copy(root[:], secret)
	return DeriveKey(root, label), nil
}
