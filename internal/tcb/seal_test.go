package tcb

import (
	"bytes"
	"errors"
	"testing"
)

// TestCounterNonceUniqueness pins the property the EWB anti-replay path
// depends on: distinct counters map to distinct nonces, injectively, for
// the GCM nonce width.
func TestCounterNonceUniqueness(t *testing.T) {
	const size = 12
	seen := make(map[string]uint64)
	counters := []uint64{0, 1, 2, 255, 256, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	for i := uint64(0); i < 4096; i++ {
		counters = append(counters, i)
	}
	for _, c := range counters {
		n := counterNonce(make([]byte, size), c)
		if len(n) != size {
			t.Fatalf("counterNonce(%d, %d) has length %d", c, size, len(n))
		}
		if prev, dup := seen[string(n)]; dup && prev != c {
			t.Fatalf("counters %d and %d share nonce %x", prev, c, n)
		}
		seen[string(n)] = c
	}
}

// TestCounterNonceWidth checks the big-endian placement in the low bytes
// (over scratch that held another nonce) and that widths shorter than 8 bytes truncate rather than panic.
func TestCounterNonceWidth(t *testing.T) {
	n := counterNonce(bytes.Repeat([]byte{0xff}, 12), 0x0102030405060708)
	want := []byte{0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(n, want) {
		t.Fatalf("counterNonce placement: got %x, want %x", n, want)
	}
	short := counterNonce(make([]byte, 4), 0x0102030405060708)
	if !bytes.Equal(short, []byte{5, 6, 7, 8}) {
		t.Fatalf("counterNonce width-4 truncation: got %x", short)
	}
	if got := counterNonce(nil, 42); len(got) != 0 {
		t.Fatalf("counterNonce width 0: got %x", got)
	}
}

// TestOpenRejectsTruncatedAndTampered walks every truncation length and a
// bit flip in every region of the envelope (nonce, ciphertext, tag).
func TestOpenRejectsTruncatedAndTampered(t *testing.T) {
	key, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the enclave state must stay intact")
	aad := []byte("ckpt-header")
	sealed, err := Seal(key, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Open(key, sealed, aad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("roundtrip: %v, %q", err, got)
	}
	for n := 0; n < len(sealed); n++ {
		if _, err := Open(key, sealed[:n], aad); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrDecrypt", n, err)
		}
	}
	for i := 0; i < len(sealed); i++ {
		tampered := append([]byte(nil), sealed...)
		tampered[i] ^= 0x01
		if _, err := Open(key, tampered, aad); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("bit flip at byte %d: got %v, want ErrDecrypt", i, err)
		}
	}
}

// TestOpenRejectsShortBlob pins the short-input guard (sealed shorter than
// one nonce) for both the random-nonce and checkpoint-cipher paths.
func TestOpenRejectsShortBlob(t *testing.T) {
	key, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{nil, {}, {1}, make([]byte, 11)} {
		if _, err := Open(key, blob, nil); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("Open(%d bytes): got %v, want ErrDecrypt", len(blob), err)
		}
	}
	for _, c := range []CheckpointCipher{CipherAESGCM, CipherRC4, CipherDES} {
		if _, err := DecryptCheckpoint(c, key, []byte{0xAB}, nil); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("DecryptCheckpoint(%v, 1 byte): got %v, want ErrDecrypt", c, err)
		}
	}
}

// TestDeterministicSealTamperAndTruncate covers the counter-nonce seal the
// EWB path uses: any mutation or truncation must fail authentication.
func TestDeterministicSealTamperAndTruncate(t *testing.T) {
	key, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("page content")
	aad := []byte("va-slot-7")
	sealed, err := SealDeterministic(key, 99, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := OpenDeterministic(key, 99, sealed, aad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("roundtrip: %v, %q", err, got)
	}
	if _, err := OpenDeterministic(key, 98, sealed, aad); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong counter: got %v, want ErrDecrypt", err)
	}
	if _, err := OpenDeterministic(key, 99, sealed[:len(sealed)-1], aad); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("truncated: got %v, want ErrDecrypt", err)
	}
	tampered := append([]byte(nil), sealed...)
	tampered[0] ^= 0x80
	if _, err := OpenDeterministic(key, 99, tampered, aad); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered: got %v, want ErrDecrypt", err)
	}
}
