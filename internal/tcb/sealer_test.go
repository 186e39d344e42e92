package tcb

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"crypto/rc4"
	"encoding/binary"
	"errors"
	"testing"
)

// TestSealerMatchesPlainGCM pins the blob format: a Sealer's output is
// AES-256-GCM under the 96-bit big-endian counter nonce, byte for byte what
// the per-call construction it replaced produced, and the exported
// one-shot wrappers are the same function.
func TestSealerMatchesPlainGCM(t *testing.T) {
	key, _ := RandomKey()
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	block, _ := aes.NewCipher(key[:])
	ref, _ := cipher.NewGCM(block)
	pt := bytes.Repeat([]byte{0xa5, 0x5a}, 2048)
	aad := []byte("enclave-lin-type-perm")
	for _, counter := range []uint64{0, 1, 0x0102030405060708, 1<<64 - 1} {
		var nonce [12]byte
		binary.BigEndian.PutUint64(nonce[4:], counter)
		//lint:ignore cryptononce the reference encodes the counter independently of counterNonce, which it checks
		want := ref.Seal(nil, nonce[:], pt, aad)
		if got := s.Seal(nil, counter, pt, aad); !bytes.Equal(got, want) {
			t.Fatalf("counter %#x: Sealer.Seal differs from plain GCM", counter)
		}
		if got, err := SealDeterministic(key, counter, pt, aad); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("counter %#x: SealDeterministic differs from plain GCM (%v)", counter, err)
		}
		if got, err := s.Open(nil, counter, want, aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("counter %#x: Sealer.Open: %v", counter, err)
		}
		if got, err := OpenDeterministic(key, counter, want, aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("counter %#x: OpenDeterministic: %v", counter, err)
		}
	}
}

// TestSealerAppendsAndOpensInPlace covers the caller-owned-buffer contract:
// Seal appends behind what dst already holds, Open can decrypt over the
// ciphertext, and a failed Open returns no plaintext.
func TestSealerAppendsAndOpensInPlace(t *testing.T) {
	key, _ := RandomKey()
	s, _ := NewSealer(key)
	pt := []byte("one page of enclave memory")
	aad := []byte("aad")
	dst := append(make([]byte, 0, 64), "hdr|"...)
	out := s.Seal(dst, 9, pt, aad)
	if !bytes.HasPrefix(out, []byte("hdr|")) || len(out) != 4+len(pt)+SealOverhead {
		t.Fatalf("Seal did not append: %d bytes", len(out))
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("Seal reallocated although dst had room")
	}
	sealed := out[4:]
	for _, bad := range []struct {
		name    string
		counter uint64
		aad     []byte
		flip    int
	}{{"counter", 10, aad, -1}, {"aad", 9, []byte("aae"), -1}, {"body", 9, aad, 3}, {"tag", 9, aad, len(sealed) - 1}} {
		c := append([]byte(nil), sealed...)
		if bad.flip >= 0 {
			c[bad.flip] ^= 1
		}
		if got, err := s.Open(c[:0], bad.counter, c, bad.aad); !errors.Is(err, ErrDecrypt) || got != nil {
			t.Fatalf("%s: Open = %q, %v; want nil, ErrDecrypt", bad.name, got, err)
		}
	}
	got, err := s.Open(sealed[:0], 9, sealed, aad)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("in-place Open: %q, %v", got, err)
	}
	if &got[0] != &sealed[0] {
		t.Fatal("in-place Open did not reuse the ciphertext's storage")
	}
}

// TestSealerAllocatesNothing pins the point of the type: with a sized dst,
// sealing or opening a page costs no allocation.
func TestSealerAllocatesNothing(t *testing.T) {
	key, _ := RandomKey()
	s, _ := NewSealer(key)
	page := make([]byte, 4096)
	aad := make([]byte, 14)
	sealed := make([]byte, 0, len(page)+SealOverhead)
	opened := make([]byte, 0, len(page))
	s.Seal(sealed, 1, page, aad) // warm the nonce pool
	if n := testing.AllocsPerRun(100, func() { sealed = s.Seal(sealed[:0], 7, page, aad) }); n != 0 {
		t.Errorf("Seal into a sized dst allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Open(opened[:0], 7, sealed, aad); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Open into a sized dst allocates %.0f objects, want 0", n)
	}
}

// oldCheckpoint is the checkpoint envelope as the allocate-per-stage code
// built it: RC4 or DES-CBC/PKCS#7 under derived keys, then HMAC over
// ciphertext and header. It is the format reference for the in-place path.
func oldCheckpoint(t *testing.T, c CheckpointCipher, key Key, pt, aad []byte) []byte {
	t.Helper()
	var ct []byte
	var macKey Key
	switch c {
	case CipherRC4:
		enc := DeriveKey(key, "rc4-enc")
		rc, err := rc4.NewCipher(enc[:])
		if err != nil {
			t.Fatal(err)
		}
		ct = make([]byte, len(pt))
		rc.XORKeyStream(ct, pt)
		macKey = DeriveKey(key, "rc4-mac")
	case CipherDES:
		enc := DeriveKey(key, "des-enc")
		block, err := des.NewCipher(enc[:8])
		if err != nil {
			t.Fatal(err)
		}
		pad := 8 - len(pt)%8
		ct = append(append([]byte(nil), pt...), bytes.Repeat([]byte{byte(pad)}, pad)...)
		iv := DeriveKey(enc, "iv")
		cipher.NewCBCEncrypter(block, iv[:8]).CryptBlocks(ct, ct)
		macKey = DeriveKey(key, "des-mac")
	}
	tag := MAC(macKey, ct, aad)
	return append(ct, tag[:]...)
}

// TestCheckpointInPlaceEquivalence seals the same plaintext through the
// allocating and the in-place entry points, for every cipher and for
// lengths around the DES block boundary, and checks that sizes follow
// CheckpointLayout, either form opens through either opener, the legacy
// ciphers still produce the old bytes, and tampering is caught in place.
func TestCheckpointInPlaceEquivalence(t *testing.T) {
	key, _ := RandomKey()
	aad := []byte("marshalled-header")
	for _, c := range []CheckpointCipher{CipherAESGCM, CipherRC4, CipherDES} {
		for _, n := range []int{0, 1, 7, 8, 9, 4100, 4104} {
			pt := make([]byte, n)
			for i := range pt {
				pt[i] = byte(i*7 + n)
			}
			lead, size, err := CheckpointLayout(c, n)
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := EncryptCheckpoint(c, key, pt, aad)
			if err != nil || len(sealed) != size {
				t.Fatalf("%v/%d: EncryptCheckpoint: %d bytes, %v; layout says %d", c, n, len(sealed), err, size)
			}
			if c != CipherAESGCM && !bytes.Equal(sealed, oldCheckpoint(t, c, key, pt, aad)) {
				t.Fatalf("%v/%d: envelope differs from the old format", c, n)
			}

			// One allocation holding header ‖ envelope, as ctlDump lays it out.
			buf := make([]byte, len(aad)+size)
			copy(buf, aad)
			env := buf[len(aad):]
			copy(env[lead:], pt)
			if err := SealCheckpointInPlace(c, key, env, n, buf[:len(aad)]); err != nil {
				t.Fatalf("%v/%d: SealCheckpointInPlace: %v", c, n, err)
			}
			if c != CipherAESGCM && !bytes.Equal(env, sealed) {
				t.Fatalf("%v/%d: in-place envelope differs from EncryptCheckpoint's", c, n)
			}
			if got, err := DecryptCheckpoint(c, key, env, aad); err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("%v/%d: DecryptCheckpoint of the in-place envelope: %v", c, n, err)
			}

			tampered := append([]byte(nil), sealed...)
			tampered[len(tampered)/2] ^= 0x40
			if _, err := OpenCheckpointInPlace(c, key, tampered, aad); !errors.Is(err, ErrDecrypt) {
				t.Fatalf("%v/%d: in-place open of a tampered envelope: %v", c, n, err)
			}
			if _, err := OpenCheckpointInPlace(c, key, append([]byte(nil), sealed...), []byte("other-header")); !errors.Is(err, ErrDecrypt) {
				t.Fatalf("%v/%d: in-place open under another header: %v", c, n, err)
			}
			got, err := OpenCheckpointInPlace(c, key, sealed, aad)
			if err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("%v/%d: OpenCheckpointInPlace: %v", c, n, err)
			}
			if n > 0 && &got[0] != &sealed[lead] {
				t.Fatalf("%v/%d: in-place open returned fresh storage", c, n)
			}
		}
	}
	if err := SealCheckpointInPlace(CipherAESGCM, key, make([]byte, 10), 4, nil); err == nil {
		t.Fatal("SealCheckpointInPlace accepted a mis-sized envelope")
	}
	if _, _, err := CheckpointLayout(0, 4); err == nil {
		t.Fatal("CheckpointLayout accepted an unknown cipher")
	}
}

func BenchmarkSealerSeal4K(b *testing.B) {
	key, _ := RandomKey()
	s, _ := NewSealer(key)
	page := make([]byte, 4096)
	aad := make([]byte, 14)
	dst := make([]byte, 0, len(page)+SealOverhead)
	b.ReportAllocs()
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.Seal(dst[:0], uint64(i), page, aad)
	}
}

func BenchmarkSealerOpen4K(b *testing.B) {
	key, _ := RandomKey()
	s, _ := NewSealer(key)
	page := make([]byte, 4096)
	aad := make([]byte, 14)
	sealed := s.Seal(nil, 1, page, aad)
	dst := make([]byte, 0, len(page))
	b.ReportAllocs()
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(dst[:0], 1, sealed, aad); err != nil {
			b.Fatal(err)
		}
	}
}

// The checkpoint benchmarks seal and open 1 MiB in place under AES-GCM, the
// way ctlDump and ctlTgtRestore do. Opening consumes its input, so each
// iteration re-seals off the clock.
func BenchmarkCheckpointSealInPlace1M(b *testing.B) {
	key, _ := RandomKey()
	const n = 1 << 20
	aad := make([]byte, 65)
	_, size, _ := CheckpointLayout(CipherAESGCM, n)
	env := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SealCheckpointInPlace(CipherAESGCM, key, env, n, aad); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointOpenInPlace1M(b *testing.B) {
	key, _ := RandomKey()
	const n = 1 << 20
	aad := make([]byte, 65)
	_, size, _ := CheckpointLayout(CipherAESGCM, n)
	env := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := SealCheckpointInPlace(CipherAESGCM, key, env, n, aad); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := OpenCheckpointInPlace(CipherAESGCM, key, env, aad); err != nil {
			b.Fatal(err)
		}
	}
}
