package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestRegenFuzzCorpus rewrites the committed seed corpora under
// testdata/fuzz/ — the inputs `go test -fuzz` starts from before mutating,
// and `make fuzz-smoke` replays as plain tests on every CI run. Gated
// behind REGEN_FUZZ_CORPUS=1 so a normal `go test` never touches the
// tree; rerun it after changing the wire formats or the in-code f.Add
// seeds, and commit the diff.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz/")
	}

	writeCorpus(t, "FuzzFrameDecode", frameSeeds())

	var mr [32]byte
	copy(mr[:], bytes.Repeat([]byte{0xab}, 32))
	writeCorpus(t, "FuzzParseImageBlob", [][]byte{
		imageBlob("worker", mr, 4),
		imageBlob("", [32]byte{}, 0),
		{},
		{0xff, 0xff, 0xff, 0xff},
		{0xfc, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		append([]byte{3, 0, 0, 0}, []byte("abc")...),
		imageBlob("trailing", mr, 1)[:20],
		append(imageBlob("extra", mr, 2), 1, 2, 3),
		append([]byte{0, 4, 0, 0}, make([]byte, 1060)...),
	})
}

// writeCorpus writes one `go test fuzz v1` file per seed, named by index
// so regeneration is deterministic and diffs stay readable.
func writeCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
