package tcb

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
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
		// The reference encodes the counter independently of
		// counterNonce, which it checks.
		binary.BigEndian.PutUint64(nonce[4:], counter)
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

// TestCheckpointInPlaceEquivalence seals checkpoint records in place, for
// every cipher and for lengths around the DES block boundary, and checks
// that sizes follow LeafSize, that a record opens in place only as itself —
// the same header, index, count, key and salt — and that EncryptCheckpoint
// and DecryptCheckpoint are the one-record checkpoint.
func TestCheckpointInPlaceEquivalence(t *testing.T) {
	key, _ := RandomKey()
	other, _ := RandomKey()
	// A sealed record that equals its plaintext is a cipher that did
	// nothing, but under a random key a record of a few bytes matches by
	// chance: a 1-byte one in one run of 256 per cipher. From 8 bytes on the
	// chance is 2^-64; shorter records are checked sealed under fixedKey,
	// whose output for them is known to differ.
	var fixedKey Key
	for i := range fixedKey {
		fixedKey[i] = byte(i + 1)
	}
	salt := bytes.Repeat([]byte{7}, SaltSize)
	hdr := []byte("marshalled-header")
	for _, c := range []CheckpointCipher{CipherAESGCM, CipherRC4, CipherDES} {
		s, err := NewLeafSealer(c, key, salt)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 7, 8, 9, 4100, 4104} {
			pt := make([]byte, n)
			for i := range pt {
				pt[i] = byte(i*7 + n)
			}
			size, err := LeafSize(c, n)
			if err != nil {
				t.Fatal(err)
			}
			env := make([]byte, size)
			copy(env, pt)
			if err := s.Seal(env, n, hdr, 2, 5); err != nil {
				t.Fatalf("%v/%d: Seal: %v", c, n, err)
			}
			if n >= 8 && bytes.Equal(env[:n], pt) {
				t.Fatalf("%v/%d: the sealed record still holds the plaintext", c, n)
			}
			if n > 0 && n < 8 {
				fixed, err := NewLeafSealer(c, fixedKey, salt)
				if err != nil {
					t.Fatal(err)
				}
				e := make([]byte, size)
				copy(e, pt)
				if err := fixed.Seal(e, n, hdr, 2, 5); err != nil {
					t.Fatalf("%v/%d: Seal under the fixed key: %v", c, n, err)
				}
				if bytes.Equal(e[:n], pt) {
					t.Fatalf("%v/%d: sealed under the fixed key, the record still holds the plaintext", c, n)
				}
			}
			wrongSalt, _ := NewLeafSealer(c, key, bytes.Repeat([]byte{8}, SaltSize))
			wrongKey, _ := NewLeafSealer(c, other, salt)
			for _, bad := range []struct {
				name         string
				s            *LeafSealer
				hdr          []byte
				index, count uint32
				flip         int
			}{
				{"header", s, []byte("other-header"), 2, 5, -1},
				{"index", s, hdr, 3, 5, -1},
				{"count", s, hdr, 2, 4, -1},
				{"salt", wrongSalt, hdr, 2, 5, -1},
				{"key", wrongKey, hdr, 2, 5, -1},
				{"body", s, hdr, 2, 5, size / 2},
				{"tag", s, hdr, 2, 5, size - 1},
			} {
				e := append([]byte(nil), env...)
				if bad.flip >= 0 {
					e[bad.flip] ^= 0x40
				}
				if _, err := bad.s.Open(e, bad.hdr, bad.index, bad.count); !errors.Is(err, ErrDecrypt) {
					t.Fatalf("%v/%d: open under another %s: %v, want ErrDecrypt", c, n, bad.name, err)
				}
			}
			got, err := s.Open(env, hdr, 2, 5)
			if err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("%v/%d: Open: %v", c, n, err)
			}
			if n > 0 && &got[0] != &env[0] {
				t.Fatalf("%v/%d: in-place open returned fresh storage", c, n)
			}

			sealed, err := EncryptCheckpoint(c, key, pt, hdr)
			if err != nil || len(sealed) != SaltSize+size {
				t.Fatalf("%v/%d: EncryptCheckpoint: %d bytes, %v; want %d", c, n, len(sealed), err, SaltSize+size)
			}
			if got, err := DecryptCheckpoint(c, key, sealed, hdr); err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("%v/%d: DecryptCheckpoint: %v", c, n, err)
			}
		}
	}
	s, _ := NewLeafSealer(CipherAESGCM, key, salt)
	if err := s.Seal(make([]byte, 10), 4, nil, 0, 1); err == nil {
		t.Fatal("Seal accepted a mis-sized record")
	}
	if _, err := NewLeafSealer(0, key, salt); err == nil {
		t.Fatal("NewLeafSealer accepted an unknown cipher")
	}
}

// TestLeafSealerSaltSeparatesCheckpoints: under one long-lived key, the same
// plaintext sealed at the same index of two checkpoints with different
// salts shares no ciphertext — for AES-GCM not one 16-byte block, so the
// two never used the same key stream.
func TestLeafSealerSaltSeparatesCheckpoints(t *testing.T) {
	key, _ := RandomKey()
	pt := bytes.Repeat([]byte{0x11}, 4100)
	hdr := []byte("header")
	for _, c := range []CheckpointCipher{CipherAESGCM, CipherRC4, CipherDES} {
		var sealed [2][]byte
		for i := range sealed {
			s, err := NewLeafSealer(c, key, bytes.Repeat([]byte{byte(i)}, SaltSize))
			if err != nil {
				t.Fatal(err)
			}
			size, _ := LeafSize(c, len(pt))
			sealed[i] = make([]byte, size)
			copy(sealed[i], pt)
			if err := s.Seal(sealed[i], len(pt), hdr, 1, 3); err != nil {
				t.Fatal(err)
			}
		}
		for off := 0; off+16 <= len(pt); off += 16 {
			if bytes.Equal(sealed[0][off:off+16], sealed[1][off:off+16]) {
				t.Fatalf("%v: block at %d sealed alike under two salts", c, off)
			}
		}
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

// The checkpoint benchmarks seal and open one 1 MiB record in place under
// AES-GCM, the way ctlDump and ctlTgtRestore do each leaf. Opening consumes
// its input, so each iteration re-seals off the clock.
func BenchmarkCheckpointSealInPlace1M(b *testing.B) {
	key, _ := RandomKey()
	const n = 1 << 20
	hdr := make([]byte, 120)
	s, _ := NewLeafSealer(CipherAESGCM, key, make([]byte, SaltSize))
	size, _ := LeafSize(CipherAESGCM, n)
	env := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Seal(env, n, hdr, uint32(i), 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointOpenInPlace1M(b *testing.B) {
	key, _ := RandomKey()
	const n = 1 << 20
	hdr := make([]byte, 120)
	s, _ := NewLeafSealer(CipherAESGCM, key, make([]byte, SaltSize))
	size, _ := LeafSize(CipherAESGCM, n)
	env := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.Seal(env[:size], n, hdr, 0, 8); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Open(env[:size], hdr, 0, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLeavesNeverShareAKeystream: the same plaintext sealed as leaves 0..3
// of one checkpoint gives four different ciphertext bodies under every
// cipher. Each leaf's AAD binds its index, so a repeated GCM nonce would
// still fail to open a moved leaf; only the bodies show the nonce reuse,
// which hands an observer the XOR of two leaves' plaintexts.
func TestLeavesNeverShareAKeystream(t *testing.T) {
	key, _ := RandomKey()
	salt := bytes.Repeat([]byte{7}, SaltSize)
	hdr := []byte("marshalled-header")
	const n, count = 4096, 4
	pt := bytes.Repeat([]byte{0x5a}, n)
	for _, c := range []CheckpointCipher{CipherAESGCM, CipherRC4, CipherDES} {
		s, err := NewLeafSealer(c, key, salt)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := LeafSize(c, n)
		bodies := make([][]byte, count)
		for i := range bodies {
			env := make([]byte, size)
			copy(env, pt)
			if err := s.Seal(env, n, hdr, uint32(i), count); err != nil {
				t.Fatal(err)
			}
			bodies[i] = env[:n]
			for j := range i {
				if bytes.Equal(bodies[i], bodies[j]) {
					t.Fatalf("cipher %d: leaves %d and %d sealed the same plaintext to the same body", c, j, i)
				}
			}
		}
	}
}
