package enclave

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/sgx"
	"repro/internal/tcb"
)

// The fuzzed checkpoint: the smallest enclave a layout allows (control
// thread, one worker, no data or heap: 7 page records) cut into leaves of
// three records, so that a 29 KiB input has three leaves, the last short.
var (
	fuzzLayout      = Layout{Threads: 2, NSSA: 2}
	fuzzLeafRecords = 3
	fuzzKey         = tcb.Key{1, 2, 3, 4, 5, 6, 7, 8}
	fuzzMR          = [32]byte{0xab, 0xcd}
)

// sealTestCheckpoint seals a migration checkpoint of an enclave with layout
// l and measurement mr the way ctlDump lays one out — a (lin, page) record
// per non-TCS page, each page patterned by its number — in leaves of per
// records, under key and a fixed salt. It returns the records and the
// checkpoint.
func sealTestCheckpoint(t testing.TB, l Layout, per int, c tcb.CheckpointCipher, key tcb.Key, mr [32]byte) ([]byte, []byte) {
	t.Helper()
	hdr := CheckpointHeader{
		Measurement: mr,
		TotalPages:  uint32(l.TotalPages()),
		Threads:     uint32(l.Threads),
		Cipher:      c,
		Flags:       make([]uint8, l.Threads),
		MigK:        make([]uint32, l.Threads),
	}
	copy(hdr.Salt[:], "a fixed salt for the test vector")
	g, err := newCkptGeometry(l, c, per)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tcb.NewLeafSealer(c, key, hdr.Salt[:])
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, g.size())
	copy(buf, MarshalHeader(hdr))
	var records []byte
	lin := 0
	fill := func(leaf int) error {
		rec := g.record(buf, leaf)[:g.plain(leaf)]
		for ; len(rec) > 0; lin++ {
			if l.IsTCS(sgx.PageNum(lin)) {
				continue
			}
			binary.LittleEndian.PutUint32(rec, uint32(lin))
			for i := 4; i < ckptRecord; i++ {
				rec[i] = byte(lin*7 + i)
			}
			records = append(records, rec[:ckptRecord]...)
			rec = rec[ckptRecord:]
		}
		return nil
	}
	if err := sealLeaves(g, buf, s, fill, discardEmit, discardPublish); err != nil {
		t.Fatal(err)
	}
	return records, buf
}

func discardEmit(int, []byte) error { return nil }
func discardPublish(int) error      { return nil }

// loadFrom is openCheckpoint's load over a checkpoint held in b.
func loadFrom(b []byte) func(int, []byte) error {
	return func(off int, dst []byte) error {
		if off < 0 || off+len(dst) > len(b) {
			return errShortWire
		}
		copy(dst, b[off:])
		return nil
	}
}

// FuzzCheckpointLeaves feeds the restoring enclave's parse-and-open path —
// header, geometry, every leaf opened and hashed, final record, record walk
// — arbitrary bytes under a fixed key. It must never panic, and whatever it
// accepts must be exactly what sealing the records it returned, under the
// input's own header and salt, produces: nothing outside the format opens.
func FuzzCheckpointLeaves(f *testing.F) {
	for _, c := range []tcb.CheckpointCipher{tcb.CipherAESGCM, tcb.CipherRC4, tcb.CipherDES} {
		_, blob := sealTestCheckpoint(f, fuzzLayout, fuzzLeafRecords, c, fuzzKey, fuzzMR)
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		hdr, leaves, err := openCheckpoint(fuzzLayout, fuzzLeafRecords, fuzzMR, false, fuzzKey, make([]byte, len(b)), loadFrom(b))
		if err != nil {
			return
		}
		g, err := newCkptGeometry(fuzzLayout, hdr.Cipher, fuzzLeafRecords)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tcb.NewLeafSealer(hdr.Cipher, fuzzKey, hdr.Salt[:])
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, g.size())
		copy(buf, b[:g.offs[0]])
		fill := func(i int) error {
			copy(g.record(buf, i), leaves[i])
			return nil
		}
		if err := sealLeaves(g, buf, s, fill, discardEmit, discardPublish); err != nil || !bytes.Equal(buf, b) {
			t.Fatalf("accepted a %d-byte checkpoint that its own records do not seal back to (%v)", len(b), err)
		}
	})
}

// TestRegenFuzzCorpus rewrites FuzzCheckpointLeaves' committed seeds under
// testdata/fuzz/ — the short inputs; the three whole checkpoints are added
// in code. Gated behind REGEN_FUZZ_CORPUS=1 so a normal `go test` never
// touches the tree.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz/")
	}
	_, blob := sealTestCheckpoint(t, fuzzLayout, fuzzLeafRecords, tcb.CipherAESGCM, fuzzKey, fuzzMR)
	head := HeaderWireSize(fuzzLayout.Threads)
	wrongMagic := append([]byte{0}, blob[1:head+64]...)
	seeds := [][]byte{
		{},
		blob[:head],
		blob[:head+64],
		wrongMagic,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointLeaves")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+strconv.Itoa(i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
