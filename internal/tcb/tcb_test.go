package tcb

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	key, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	f := func(plaintext, aad []byte) bool {
		sealed, err := Seal(key, plaintext, aad)
		if err != nil {
			return false
		}
		out, err := Open(key, sealed, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(out, plaintext)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSealNeverRepeatsANonce: Seal's envelope carries a fresh random nonce,
// so one plaintext sealed twice under one key comes out under two nonces and
// as two ciphertexts. A fixed nonce would make the second seal's keystream
// the first's.
func TestSealNeverRepeatsANonce(t *testing.T) {
	key, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	plaintext := bytes.Repeat([]byte("kmigrate"), 8)
	a, err := Seal(key, plaintext, []byte("ctx"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Seal(key, plaintext, []byte("ctx"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a[:nonceSize], b[:nonceSize]) {
		t.Fatalf("two seals under one key share the nonce %x", a[:nonceSize])
	}
	if bytes.Equal(a[nonceSize:], b[nonceSize:]) {
		t.Fatal("one plaintext sealed twice gave one ciphertext")
	}
}

func TestOpenRejectsWrongKeyAndAAD(t *testing.T) {
	k1, _ := RandomKey()
	k2, _ := RandomKey()
	sealed, err := Seal(k1, []byte("secret"), []byte("ctx"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(k2, sealed, []byte("ctx")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong key: %v", err)
	}
	if _, err := Open(k1, sealed, []byte("other")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong AAD: %v", err)
	}
	sealed[len(sealed)-1] ^= 1
	if _, err := Open(k1, sealed, []byte("ctx")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered: %v", err)
	}
}

func TestDeterministicSealBindsCounter(t *testing.T) {
	key, _ := RandomKey()
	ct, err := SealDeterministic(key, 7, []byte("page"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDeterministic(key, 8, ct, []byte("aad")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong counter: %v", err)
	}
	pt, err := OpenDeterministic(key, 7, ct, []byte("aad"))
	if err != nil || string(pt) != "page" {
		t.Fatalf("round trip: %v %q", err, pt)
	}
}

func TestDeriveKeySeparation(t *testing.T) {
	root, _ := RandomKey()
	a := DeriveKey(root, "a")
	b := DeriveKey(root, "b")
	if a == b {
		t.Fatal("purpose strings do not separate keys")
	}
	// Context framing: ("ab","c") must differ from ("a","bc").
	x := DeriveKey(root, "p", []byte("ab"), []byte("c"))
	y := DeriveKey(root, "p", []byte("a"), []byte("bc"))
	if x == y {
		t.Fatal("context framing is ambiguous")
	}
}

func TestMACVerify(t *testing.T) {
	key, _ := RandomKey()
	tag := MAC(key, []byte("hello"), []byte("world"))
	if !VerifyMAC(key, tag, []byte("hello"), []byte("world")) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyMAC(key, tag, []byte("hello"), []byte("mars")) {
		t.Fatal("invalid MAC accepted")
	}
}

func TestSigningIdentity(t *testing.T) {
	id, err := NewSigningIdentity()
	if err != nil {
		t.Fatal(err)
	}
	sig := id.Sign([]byte("msg"))
	if err := Verify(id.Public(), []byte("msg"), sig); err != nil {
		t.Fatal(err)
	}
	if err := Verify(id.Public(), []byte("other"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged message: %v", err)
	}
}

func TestSigningIdentityFromSeedDeterministic(t *testing.T) {
	seed, err := RandomSeed()
	if err != nil {
		t.Fatal(err)
	}
	a := NewSigningIdentityFromSeed(seed)
	b := NewSigningIdentityFromSeed(seed)
	if a.Public() != b.Public() {
		t.Fatal("seed-derived identity not deterministic")
	}
	sig := a.Sign([]byte("x"))
	if err := Verify(b.Public(), []byte("x"), sig); err != nil {
		t.Fatal(err)
	}
}

// TestSigningIdentityFromPair: an identity built from a seed and its
// public key signs byte for byte as the one derived from the seed alone,
// and its signatures verify under that public key.
func TestSigningIdentityFromPair(t *testing.T) {
	msgs := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("sgxmig-channel-sig/v1"), 9)}
	for i := 0; i < 4; i++ {
		seed, err := RandomSeed()
		if err != nil {
			t.Fatal(err)
		}
		derived := NewSigningIdentityFromSeed(seed)
		pair := NewSigningIdentityFromPair(seed, derived.Public())
		if pair.Public() != derived.Public() {
			t.Fatalf("seed %d: the pair's public key %x, want %x", i, pair.Public(), derived.Public())
		}
		for _, msg := range msgs {
			sig := pair.Sign(msg)
			if want := derived.Sign(msg); sig != want {
				t.Fatalf("seed %d, %d-byte message: the pair signs %x, the seed %x", i, len(msg), sig, want)
			}
			if err := Verify(pair.Public(), msg, sig); err != nil {
				t.Fatalf("seed %d, %d-byte message: %v", i, len(msg), err)
			}
		}
	}
}

func TestDHAgreement(t *testing.T) {
	a, err := NewDHKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDHKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	kab, err := a.Shared(b.Public(), "label")
	if err != nil {
		t.Fatal(err)
	}
	kba, err := b.Shared(a.Public(), "label")
	if err != nil {
		t.Fatal(err)
	}
	if kab != kba {
		t.Fatal("DH shared secrets differ")
	}
	kOther, err := a.Shared(b.Public(), "other-label")
	if err != nil {
		t.Fatal(err)
	}
	if kOther == kab {
		t.Fatal("label does not separate session keys")
	}
}

func TestDHFromSeedDeterministic(t *testing.T) {
	seed, _ := RandomSeed()
	a, err := NewDHKeyPairFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDHKeyPairFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Public() != b.Public() {
		t.Fatal("seed-derived DH key not deterministic")
	}
}

func TestCheckpointCiphersRoundTrip(t *testing.T) {
	key, _ := RandomKey()
	plaintext := bytes.Repeat([]byte("checkpoint-data-"), 1024)
	aad := []byte("header")
	for _, c := range []CheckpointCipher{CipherAESGCM, CipherRC4, CipherDES} {
		ct, err := EncryptCheckpoint(c, key, plaintext, aad)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if bytes.Contains(ct, []byte("checkpoint-data-")) {
			t.Fatalf("%v: plaintext visible in ciphertext", c)
		}
		pt, err := DecryptCheckpoint(c, key, ct, aad)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !bytes.Equal(pt, plaintext) {
			t.Fatalf("%v: round trip mismatch", c)
		}
		// Integrity for every cipher choice.
		ct[len(ct)/2] ^= 1
		if _, err := DecryptCheckpoint(c, key, ct, aad); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("%v: tampering not detected: %v", c, err)
		}
	}
}

func TestCheckpointCipherAADBinding(t *testing.T) {
	key, _ := RandomKey()
	for _, c := range []CheckpointCipher{CipherAESGCM, CipherRC4, CipherDES} {
		ct, err := EncryptCheckpoint(c, key, []byte("body"), []byte("hdr1"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecryptCheckpoint(c, key, ct, []byte("hdr2")); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("%v: header swap not detected: %v", c, err)
		}
	}
}

func TestDESPaddingProperty(t *testing.T) {
	key, _ := RandomKey()
	f := func(data []byte) bool {
		ct, err := EncryptCheckpoint(CipherDES, key, data, nil)
		if err != nil {
			return false
		}
		pt, err := DecryptCheckpoint(CipherDES, key, ct, nil)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHashConcatFraming(t *testing.T) {
	if HashConcat([]byte("ab"), []byte("c")) != HashConcat([]byte("ab"), []byte("c")) {
		t.Fatal("not deterministic")
	}
	// NOTE: HashConcat concatenates without framing by design (callers hash
	// fixed-width fields); this pins that behaviour.
	if HashConcat([]byte("ab"), []byte("c")) != HashConcat([]byte("a"), []byte("bc")) {
		t.Skip("framing added; update callers' assumptions")
	}
}
