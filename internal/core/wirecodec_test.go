package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// testFrames returns one representative PageFrame per frame kind.
func testFrames() []*PageFrame {
	raw := &PageFrame{Kind: FrameRaw, Pages: []int{3, 4, 7, 1000}, Data: make([]byte, 4*PageSize)}
	for i := range raw.Data {
		raw.Data[i] = byte(i * 7)
	}
	return []*PageFrame{
		raw,
		{Kind: FrameDelta, Pages: []int{0, 5, 6}, Sizes: []int{3, 0, 2}, Data: []byte{1, 2, 3, 9, 8}},
		{Kind: FrameBlob, Data: bytes.Repeat([]byte{0xAB}, 1024)},
		{Kind: FrameEnd},
		{Kind: FrameCtl, Msg: MsgCheckpoint, Frames: 3, Data: []byte("announcement")},
	}
}

func frameEq(t *testing.T, want, got *PageFrame) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Fatalf("kind = %v, want %v", got.Kind, want.Kind)
	}
	if got.Msg != want.Msg || got.Frames != want.Frames {
		t.Fatalf("message %d announcing %d frames, want %d announcing %d", got.Msg, got.Frames, want.Msg, want.Frames)
	}
	if len(got.Pages) != len(want.Pages) {
		t.Fatalf("pages = %v, want %v", got.Pages, want.Pages)
	}
	for i := range want.Pages {
		if got.Pages[i] != want.Pages[i] {
			t.Fatalf("pages = %v, want %v", got.Pages, want.Pages)
		}
	}
	if len(got.Sizes) != len(want.Sizes) {
		t.Fatalf("sizes = %v, want %v", got.Sizes, want.Sizes)
	}
	for i := range want.Sizes {
		if got.Sizes[i] != want.Sizes[i] {
			t.Fatalf("sizes = %v, want %v", got.Sizes, want.Sizes)
		}
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("data mismatch: %d bytes, want %d", len(got.Data), len(want.Data))
	}
}

// TestPageFrameRoundTrip round-trips every frame kind through AppendFrame
// and DecodeFrame, both alone and concatenated on one buffer.
func TestPageFrameRoundTrip(t *testing.T) {
	for _, f := range testFrames() {
		t.Run(f.Kind.String(), func(t *testing.T) {
			enc := AppendFrame(nil, f)
			got, n, err := DecodeFrame(enc)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if n != len(enc) {
				t.Fatalf("consumed %d of %d bytes", n, len(enc))
			}
			frameEq(t, f, got)
		})
	}
	// Back-to-back frames decode sequentially off one buffer.
	var enc []byte
	for _, f := range testFrames() {
		enc = AppendFrame(enc, f)
	}
	for _, f := range testFrames() {
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("DecodeFrame(%v): %v", f.Kind, err)
		}
		frameEq(t, f, got)
		enc = enc[n:]
	}
	if len(enc) != 0 {
		t.Fatalf("%d trailing bytes", len(enc))
	}
}

// TestPageFrameTruncation checks that every strict prefix of every frame
// kind's encoding fails to decode rather than mis-parsing.
func TestPageFrameTruncation(t *testing.T) {
	for _, f := range testFrames() {
		t.Run(f.Kind.String(), func(t *testing.T) {
			enc := AppendFrame(nil, f)
			for i := 0; i < len(enc); i++ {
				if _, _, err := DecodeFrame(enc[:i]); err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded", i, len(enc))
				}
			}
		})
	}
}

// TestDecodeFrameRejects exercises the decoder's validation: malformed
// frames must error, never alias garbage.
func TestDecodeFrameRejects(t *testing.T) {
	body := func(b ...byte) []byte {
		enc := binary.LittleEndian.AppendUint32(nil, uint32(len(b)))
		return append(enc, b...)
	}
	cases := []struct {
		name string
		enc  []byte
	}{
		{"unknown kind", body(0x99, 0)},
		{"empty body", body()},
		{"end with payload", AppendFrame(nil, &PageFrame{Kind: FrameEnd, Data: []byte{1}})},
		{"blob with pages", AppendFrame(nil, &PageFrame{Kind: FrameBlob, Pages: []int{1}, Data: make([]byte, PageSize)})},
		// Kind 3, retired: refused as unknown whatever it carries.
		{"gob with pages", AppendFrame(nil, &PageFrame{Kind: 3, Pages: []int{1}, Data: make([]byte, PageSize)})},
		{"duplicate page", AppendFrame(nil, &PageFrame{Kind: FrameRaw, Pages: []int{5, 5}, Data: make([]byte, 2*PageSize)})},
		{"descending pages", AppendFrame(nil, &PageFrame{Kind: FrameRaw, Pages: []int{5, 3}, Data: make([]byte, 2*PageSize)})},
		{"raw size mismatch", AppendFrame(nil, &PageFrame{Kind: FrameRaw, Pages: []int{1}, Data: make([]byte, 10)})},
		{"delta size over page", AppendFrame(nil, &PageFrame{Kind: FrameDelta, Pages: []int{1}, Sizes: []int{PageSize + 1}, Data: make([]byte, PageSize+1)})},
		{"delta sizes sum mismatch", AppendFrame(nil, &PageFrame{Kind: FrameDelta, Pages: []int{1}, Sizes: []int{4}, Data: make([]byte, 7)})},
		// Kind 6, retired likewise.
		{"rawz without pages", AppendFrame(nil, &PageFrame{Kind: 6, Data: []byte{1, 2, 3}})},
		{"rawz empty body", AppendFrame(nil, &PageFrame{Kind: 6, Pages: []int{1}})},
		{"rawz body not smaller than pages", AppendFrame(nil, &PageFrame{Kind: 6, Pages: []int{1}, Data: make([]byte, PageSize)})},
		{"oversized length prefix", binary.LittleEndian.AppendUint32(nil, maxFrameBody+1)},
		{"too many pages", body(append([]byte{byte(FrameRaw)}, binary.AppendUvarint(nil, maxFramePages+1)...)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeFrame(tc.enc); err == nil {
				t.Fatal("decoded malformed frame")
			}
		})
	}
}

// TestRetiredFrameKindsRefused: wire values 3 (gob page chunk) and 6
// (DEFLATE raw pages) belonged to kinds this codec no longer speaks. A
// frame of either — what an old peer would send, bodies that used to be
// valid — is refused as unknown before anything is sized from it: no page
// list, no inflate buffer, on either decode path.
func TestRetiredFrameKindsRefused(t *testing.T) {
	body := func(b ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(b))), b...)
	}
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"gob chunk", AppendFrame(nil, &PageFrame{Kind: 3, Data: []byte("gob-encoded chunk payload")})},
		{"rawz pages", AppendFrame(nil, &PageFrame{Kind: 6, Pages: []int{2, 9, 4000}, Data: []byte("compressed page bytes")})},
		// Would cost a live kind a 64 Ki-entry page list before it ran dry.
		{"rawz claiming the page cap", body(append([]byte{6}, binary.AppendUvarint(nil, maxFramePages)...)...)},
	} {
		if _, _, err := DecodeFrame(tc.enc); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("%s: DecodeFrame = %v, want unknown frame kind", tc.name, err)
		}
		if _, err := ReadFrame(bytes.NewReader(tc.enc)); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("%s: ReadFrame = %v, want unknown frame kind", tc.name, err)
		}
		// DecodeFrame aliases its input: refusing allocates the frame
		// header it had started on and the error, nothing sized by the body.
		total := allocatedBy(func() {
			for i := 0; i < 100; i++ {
				_, _, _ = DecodeFrame(tc.enc)
			}
		})
		if per := total / 100; per > 512 {
			t.Fatalf("%s: refusing the frame allocated %d bytes", tc.name, per)
		}
	}
}

// frameSeeds are the FuzzFrameDecode seeds, in code and (corpusgen_test.go)
// as the committed corpus: every kind, then malformed frames.
func frameSeeds() [][]byte {
	var seeds [][]byte
	for _, pf := range testFrames() {
		seeds = append(seeds, AppendFrame(nil, pf))
	}
	enc := seeds[0]
	return append(seeds,
		enc[:len(enc)-3], // truncated body
		binary.LittleEndian.AppendUint32(nil, 1<<31),              // hostile length
		append(binary.LittleEndian.AppendUint32(nil, 2), 0x99, 0), // unknown kind
		// Page gaps of one, two and three uvarint bytes.
		AppendFrame(nil, &PageFrame{Kind: FrameDelta, Pages: []int{0, 1, 301, 70000}, Sizes: []int{0, 1, 0, 2}, Data: []byte{7, 8, 9}}),
		AppendFrame(nil, &PageFrame{Kind: FrameBlob, Pages: []int{1}, Data: []byte{1}}), // blob with pages
		// Control frames: empty message, body shorter than its header, the
		// start of one with a blob over the cap, and each class dressed as
		// the other — a message's bytes under the blob kind, a delta
		// frame's under the control kind.
		AppendFrame(nil, &PageFrame{Kind: FrameCtl, Msg: MsgDone}),
		append(binary.LittleEndian.AppendUint32(nil, 3), byte(FrameCtl), byte(MsgKey), 0),
		append(binary.LittleEndian.AppendUint32(nil, ctlHeader+maxCtlBlob+1), byte(FrameCtl), byte(MsgHello)),
		withKind(seeds[4], FrameBlob),
		withKind(seeds[1], FrameCtl),
	)
}

// withKind returns a copy of the encoded frame enc with its kind byte
// replaced.
func withKind(enc []byte, k FrameKind) []byte {
	enc = append([]byte(nil), enc...)
	enc[4] = byte(k)
	return enc
}

// TestWriteReadFrame streams frames through an io.Writer/Reader pair (the
// TCP transport's path) and checks the pooled-buffer contract.
func TestWriteReadFrame(t *testing.T) {
	var stream bytes.Buffer
	for _, f := range testFrames() {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatalf("WriteFrame(%v): %v", f.Kind, err)
		}
	}
	for _, f := range testFrames() {
		got, err := ReadFrame(&stream)
		if err != nil {
			t.Fatalf("ReadFrame(%v): %v", f.Kind, err)
		}
		frameEq(t, f, got)
		got.Release()
	}
	if stream.Len() != 0 {
		t.Fatalf("%d trailing bytes", stream.Len())
	}
	// A stream that ends mid-frame reports an error, not a short frame.
	stream.Reset()
	enc := AppendFrame(nil, testFrames()[0])
	stream.Write(enc[:len(enc)-1])
	if _, err := ReadFrame(&stream); err == nil {
		t.Fatal("ReadFrame decoded a truncated stream")
	}
}

// randomDeltaPage mutates a copy of old in a few random windows, the
// re-dirtied-page shape delta encoding targets.
func randomDeltaPage(rng *rand.Rand, old []byte) []byte {
	cur := append([]byte(nil), old...)
	for w := 0; w < 1+rng.Intn(4); w++ {
		off := rng.Intn(len(cur))
		n := 1 + rng.Intn(128)
		if off+n > len(cur) {
			n = len(cur) - off
		}
		rng.Read(cur[off : off+n])
	}
	return cur
}

// TestXORDeltaProperty: for random page pairs, a non-nil delta must apply
// back to bit-exact content and be smaller than the raw page; identical
// pages must encode as an empty delta.
func TestXORDeltaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		old := make([]byte, PageSize)
		var baseline []byte // nil = zero page
		if iter%3 != 0 {
			rng.Read(old)
			baseline = old
		}
		cur := randomDeltaPage(rng, old)
		out := XORDeltaEncode(nil, baseline, cur)
		if out == nil {
			continue // raw is cheaper; nothing to verify
		}
		if len(out) >= PageSize {
			t.Fatalf("iter %d: delta of %d bytes not smaller than page", iter, len(out))
		}
		page := append([]byte(nil), old...)
		if err := ApplyXORDelta(page, out); err != nil {
			t.Fatalf("iter %d: ApplyXORDelta: %v", iter, err)
		}
		if !bytes.Equal(page, cur) {
			t.Fatalf("iter %d: delta did not reproduce page", iter)
		}
	}
	// Identical content encodes as an empty delta, and applying it is a
	// no-op.
	page := make([]byte, PageSize)
	rng.Read(page)
	out := XORDeltaEncode(nil, page, page)
	if len(out) != 0 {
		t.Fatalf("identical page delta = %d bytes, want 0", len(out))
	}
	// Appending to an existing buffer keeps earlier deltas intact.
	prefix := []byte{1, 2, 3}
	cur := randomDeltaPage(rng, page)
	out = XORDeltaEncode(prefix, page, cur)
	if out != nil && !bytes.Equal(out[:3], prefix) {
		t.Fatal("encoder clobbered the destination prefix")
	}
}

// TestApplyXORDeltaRejects: hostile deltas must not write outside the page.
func TestApplyXORDeltaRejects(t *testing.T) {
	page := make([]byte, PageSize)
	cases := [][]byte{
		binary.AppendUvarint(nil, PageSize+1),                                     // skip past the end
		append(binary.AppendUvarint(binary.AppendUvarint(nil, 0), PageSize+1), 0), // literal past the end
		binary.AppendUvarint(binary.AppendUvarint(nil, 0), 8),                     // literal truncated
		{0x80}, // unterminated uvarint
	}
	for i, d := range cases {
		if err := ApplyXORDelta(page, d); err == nil {
			t.Fatalf("case %d: hostile delta accepted", i)
		}
	}
}

// applyChunk installs EncodeChunk's frames into mem (page number → page
// content) the way the peer does, and releases them.
func applyChunk(t *testing.T, mem map[int][]byte, raw, delta *PageFrame) {
	t.Helper()
	if raw != nil {
		for i, p := range raw.Pages {
			copy(mem[p], raw.Data[i*PageSize:(i+1)*PageSize])
		}
		raw.Release()
	}
	if delta != nil {
		off := 0
		for i, p := range delta.Pages {
			sz := delta.Sizes[i]
			if err := ApplyXORDelta(mem[p], delta.Data[off:off+sz]); err != nil {
				t.Fatalf("apply delta page %d: %v", p, err)
			}
			off += sz
		}
		delta.Release()
	}
}

// TestEncodeChunk drives the chunk splitter: compressible pages ride the
// delta frame, incompressible ones the raw frame, and applying both onto a
// target that mirrors the cache baseline reproduces the source bit-exactly.
func TestEncodeChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cache := make(DeltaCache)
	pages := []int{2, 9, 10, 40}
	mem := map[int][]byte{} // target-side page state, starts zeroed
	for _, p := range pages {
		mem[p] = make([]byte, PageSize)
	}

	capture := func(content map[int][]byte) []byte {
		data := GetBuf(len(pages) * PageSize)
		for i, p := range pages {
			copy(data[i*PageSize:(i+1)*PageSize], content[p])
		}
		return data
	}
	apply := func(raw, delta *PageFrame) { applyChunk(t, mem, raw, delta) }

	// Round 1 vs the zero baseline: a zero page and a sparse page compress,
	// a random page does not.
	src := map[int][]byte{
		2:  make([]byte, PageSize),            // all zero
		9:  make([]byte, PageSize),            // sparse
		10: make([]byte, PageSize),            // random
		40: bytes.Repeat([]byte{1}, PageSize), // dense but patterned: delta vs zero is full-page literal → raw
	}
	rng.Read(src[9][100:180])
	rng.Read(src[10])
	raw, delta, saved := EncodeChunk(pages, capture(src), cache)
	if delta == nil {
		t.Fatal("round 1 produced no delta frame")
	}
	if raw == nil {
		t.Fatal("round 1 produced no raw frame")
	}
	if saved <= 0 {
		t.Fatalf("round 1 saved %d bytes", saved)
	}
	for _, p := range delta.Pages {
		if p != 2 && p != 9 {
			t.Fatalf("page %d rode the delta frame", p)
		}
	}
	apply(raw, delta)
	for _, p := range pages {
		if !bytes.Equal(mem[p], src[p]) {
			t.Fatalf("round 1: page %d corrupted", p)
		}
	}

	// Round 2: every page re-dirtied in a small window → all-delta chunk,
	// applied on top of round 1's content.
	for _, p := range pages {
		src[p] = randomDeltaPage(rng, src[p])
	}
	raw, delta, saved = EncodeChunk(pages, capture(src), cache)
	if raw != nil {
		t.Fatalf("round 2 sent pages %v raw", raw.Pages)
	}
	if delta == nil || len(delta.Pages) != len(pages) {
		t.Fatal("round 2 should delta every page")
	}
	if saved <= 0 {
		t.Fatalf("round 2 saved %d bytes", saved)
	}
	apply(raw, delta)
	for _, p := range pages {
		if !bytes.Equal(mem[p], src[p]) {
			t.Fatalf("round 2: page %d corrupted", p)
		}
	}
}

// TestEncodeChunkZeroPages pins the cache rule for zero pages: a page that
// is still all zero leaves no cache entry (absence means "the peer's fresh
// memory still holds zeros"), the same page written later deltas against
// zero, and a page zeroed again after being non-zero keeps its entry and
// still round-trips.
func TestEncodeChunkZeroPages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cache := make(DeltaCache)
	pages := []int{4, 5}
	mem := map[int][]byte{4: make([]byte, PageSize), 5: make([]byte, PageSize)}
	src := map[int][]byte{4: make([]byte, PageSize), 5: make([]byte, PageSize)}
	// round encodes src, applies the frames to mem, checks both against
	// the cache invariant and reports which pages rode which frame.
	round := func(name string) (rawPages, deltaPages []int) {
		t.Helper()
		data := GetBuf(len(pages) * PageSize)
		for i, p := range pages {
			copy(data[i*PageSize:], src[p])
		}
		raw, delta, _ := EncodeChunk(pages, data, cache)
		if raw != nil {
			rawPages = raw.Pages
		}
		if delta != nil {
			deltaPages = delta.Pages
		}
		applyChunk(t, mem, raw, delta)
		for _, p := range pages {
			if !bytes.Equal(mem[p], src[p]) {
				t.Fatalf("%s: page %d corrupted on the peer", name, p)
			}
			if c, ok := cache[p]; ok && !bytes.Equal(c, src[p]) {
				t.Fatalf("%s: cache entry of page %d does not mirror the peer", name, p)
			}
		}
		return rawPages, deltaPages
	}

	// Round 1: page 4 still zero, page 5 random.
	rng.Read(src[5])
	rawPages, deltaPages := round("first touch")
	if _, ok := cache[4]; ok {
		t.Fatal("a still-zero page got a cache entry")
	}
	if cache[5] == nil {
		t.Fatal("a non-zero page got no cache entry")
	}
	if len(deltaPages) != 1 || deltaPages[0] != 4 || len(rawPages) != 1 || rawPages[0] != 5 {
		t.Fatalf("first touch: raw %v delta %v, want raw [5] delta [4]", rawPages, deltaPages)
	}

	// Round 2: page 4 written for the first time — a sparse delta against
	// the zeros the peer still holds.
	rng.Read(src[4][700:764])
	rawPages, deltaPages = round("zero then written")
	if len(rawPages) != 0 || len(deltaPages) != 2 {
		t.Fatalf("zero then written: raw %v delta %v, want both pages as deltas", rawPages, deltaPages)
	}
	if cache[4] == nil {
		t.Fatal("a page written after being zero got no cache entry")
	}

	// Round 3: both pages zeroed again. Their entries stay (updated in
	// place to zeros) and the deltas undo the old content on the peer.
	entry4, entry5 := &cache[4][0], &cache[5][0]
	src[4], src[5] = make([]byte, PageSize), make([]byte, PageSize)
	round("zeroed again")
	if &cache[4][0] != entry4 || &cache[5][0] != entry5 {
		t.Fatal("zeroing a cached page replaced its entry instead of updating it in place")
	}

	// Round 4: written once more, against the all-zero entries.
	rng.Read(src[4][:32])
	rng.Read(src[5])
	round("written after zeroed")
}

// TestEncodeChunkZeroChunkAllocs: an all-zero chunk against an empty cache
// pays for its frame bookkeeping only — no page copy, no cache insert.
func TestEncodeChunkZeroChunkAllocs(t *testing.T) {
	const n = 64
	pages := make([]int, n)
	for i := range pages {
		pages[i] = i
	}
	cache := make(DeltaCache)
	allocs := testing.AllocsPerRun(20, func() {
		data := GetBuf(n * PageSize)
		clear(data)
		raw, delta, _ := EncodeChunk(pages, data, cache)
		raw.Release()
		delta.Release()
	})
	if len(cache) != 0 {
		t.Fatalf("all-zero chunk left %d cache entries", len(cache))
	}
	if allocs >= n/4 {
		t.Fatalf("all-zero %d-page chunk: %.0f allocations, want no per-page allocation", n, allocs)
	}
}

// refXORDeltaEncode is the byte-at-a-time encoder XORDeltaEncode replaced,
// kept as the reference the differential and fuzz tests compare against:
// the word-at-a-time encoder must produce the same bytes and the same
// nil-ness for every input.
func refXORDeltaEncode(dst, old, new []byte) []byte {
	base := len(dst)
	limit := base + len(new)
	i := 0
	for i < len(new) {
		run := i
		if old == nil {
			for run < len(new) && new[run] == 0 {
				run++
			}
		} else {
			for run < len(new) && new[run] == old[run] {
				run++
			}
		}
		if run == len(new) {
			break
		}
		lit := run
		for lit < len(new) {
			z := lit
			if old == nil {
				for z < len(new) && new[z] == 0 {
					z++
				}
			} else {
				for z < len(new) && new[z] == old[z] {
					z++
				}
			}
			if z-lit >= 4 || z == len(new) {
				break
			}
			lit = z + 1
			for lit < len(new) {
				if old == nil {
					if new[lit] == 0 {
						break
					}
				} else if new[lit] == old[lit] {
					break
				}
				lit++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(run-i))
		dst = binary.AppendUvarint(dst, uint64(lit-run))
		for k := run; k < lit; k++ {
			if old == nil {
				dst = append(dst, new[k])
			} else {
				dst = append(dst, new[k]^old[k])
			}
		}
		if len(dst) >= limit {
			return nil
		}
		i = lit
	}
	return dst
}

// deltaCase builds one differential-test input: a page length (whole
// pages, arbitrary lengths, tiny ones, and whole 64-byte scan blocks plus a
// tail that is no multiple of 8), a baseline (nil every third case) and a
// new page derived from it by one of the deltaShape mutations.
func deltaCase(rng *rand.Rand, iter int) (old, cur []byte) {
	n := PageSize
	switch iter % 4 {
	case 1:
		n = rng.Intn(PageSize + 1)
	case 2:
		n = rng.Intn(65)
	case 3:
		tail := 1 + rng.Intn(scanBlock-1)
		if tail%8 == 0 {
			tail--
		}
		n = scanBlock*rng.Intn(PageSize/scanBlock) + tail
	}
	return deltaShape(rng, n, iter%3 != 0, rng.Intn(deltaShapes))
}

// deltaShapes is the number of mutation shapes deltaShape knows.
const deltaShapes = 9

// deltaShape builds an n-byte baseline (random bytes when withBase, the nil
// zero page otherwise) and a new page derived from it by the given shape.
// Shapes 5 to 8 sit on the edges of the encoder's scans: its equal-run scan
// compares whole 64-byte blocks before it looks at words, and both scans
// finish a page's last bytes one at a time. Shape 8 makes zero blocks of new
// that lie beside zero blocks of the baseline but not on them.
func deltaShape(rng *rand.Rand, n int, withBase bool, shape int) (old, cur []byte) {
	base := make([]byte, n) // what the baseline reads as; zeros when old is nil
	if withBase {
		rng.Read(base)
		old = base
	}
	cur = append([]byte(nil), base...)
	if n == 0 {
		return old, cur
	}
	// differ makes cur[k] differ from the baseline.
	differ := func(k int) { cur[k] = base[k] ^ byte(1+rng.Intn(255)) }
	differAll := func() {
		for k := range cur {
			differ(k)
		}
	}
	switch shape {
	case 0: // random: unrelated content
		rng.Read(cur)
	case 1: // sparse flips
		for f := rng.Intn(9); f > 0; f-- {
			differ(rng.Intn(n))
		}
	case 2: // block overwrites
		cur = randomDeltaPage(rng, base)
	case 3: // differing everywhere but for equal runs of 1 to 5 bytes
		differAll()
		for k := rng.Intn(24); k < n; k += 1 + rng.Intn(24) {
			for e := 1 + rng.Intn(5); e > 0 && k < n; e-- {
				cur[k] = base[k]
				k++
			}
		}
	case 4: // differing prefix, equal tail (down to a byte or none)
		for k := n - rng.Intn(min(n, 12)+1) - 1; k >= 0; k-- {
			if rng.Intn(8) != 0 {
				differ(k)
			}
		}
	case 5: // differing everywhere but for single equal bytes on 64-byte boundaries
		differAll()
		for k := 0; k < n; k += scanBlock {
			if rng.Intn(2) == 0 {
				cur[k] = base[k]
			}
		}
	case 6: // differing everywhere but for equal runs across a block's length
		differAll()
		runs := [...]int{3, 4, 7, 8, 9, scanBlock - 1, scanBlock, scanBlock + 1, 2*scanBlock - 1, 2 * scanBlock, 2*scanBlock + 1}
		for k := rng.Intn(scanBlock); k < n; k += 1 + rng.Intn(2*scanBlock) {
			e := k + runs[rng.Intn(len(runs))]
			for ; k < min(e, n); k++ {
				cur[k] = base[k]
			}
		}
	case 7: // equal but for one byte in the last 1 to 7
		differ(n - 1 - rng.Intn(min(n, 7)))
	case 8: // a mostly-zero baseline cleared back to zero but for some of its bytes
		clear(base)
		for f := 1 + rng.Intn(8); f > 0; f-- {
			base[rng.Intn(n)] = byte(1 + rng.Intn(255))
		}
		clear(cur)
		for k, b := range base {
			if b != 0 && rng.Intn(2) == 0 {
				cur[k] = b
			}
		}
	}
	return old, cur
}

// TestXORDeltaMatchesReference is the differential test: over seeded
// inputs of every shape deltaCase makes, with and without bytes already in
// dst, the encoder's output equals the reference's — same bytes, same
// nil-ness — and leaves the destination prefix alone.
func TestXORDeltaMatchesReference(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < cases; iter++ {
		old, cur := deltaCase(rng, iter)
		var prefix []byte
		if iter%5 == 0 {
			prefix = make([]byte, 1+rng.Intn(9))
			rng.Read(prefix)
		}
		want := refXORDeltaEncode(append([]byte(nil), prefix...), old, cur)
		got := XORDeltaEncode(append([]byte(nil), prefix...), old, cur)
		if (got == nil) != (want == nil) {
			t.Fatalf("iter %d (len %d, nil baseline %v): got nil = %v, reference nil = %v",
				iter, len(cur), old == nil, got == nil, want == nil)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d (len %d, nil baseline %v): %d delta bytes differ from the reference's %d",
				iter, len(cur), old == nil, len(got), len(want))
		}
	}
}

// FuzzXORDelta: whatever the encoder accepts must be smaller than the page
// and must apply back to it bit-exactly; and it must agree with the
// reference encoder. old is cut or zero-padded to new's length; an empty
// old selects the nil (zero-page) baseline.
func FuzzXORDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 12; iter++ {
		old, cur := deltaCase(rng, iter)
		f.Add(old, cur)
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 2, 3, 4, 0, 6, 7, 8, 9})
	// One seed per edge of the scans, and a length with a partial block and
	// a partial word at its end.
	for shape := 5; shape < deltaShapes; shape++ {
		old, cur := deltaShape(rng, PageSize, shape%2 == 0, shape)
		f.Add(old, cur)
	}
	old, cur := deltaShape(rng, 5*scanBlock+13, true, 3)
	f.Add(old, cur)
	f.Fuzz(func(t *testing.T, old, cur []byte) {
		if len(cur) > PageSize {
			cur = cur[:PageSize]
		}
		page := make([]byte, len(cur)) // the peer's copy: zeros, or old
		if len(old) > 0 {
			copy(page, old)
			old = append([]byte(nil), page...)
		} else {
			old = nil
		}
		out := XORDeltaEncode(nil, old, cur)
		if ref := refXORDeltaEncode(nil, old, cur); (out == nil) != (ref == nil) || !bytes.Equal(out, ref) {
			t.Fatalf("encoder and reference disagree: %d bytes (nil %v) vs %d (nil %v)", len(out), out == nil, len(ref), ref == nil)
		}
		if out == nil {
			return
		}
		if len(out) >= len(cur) {
			t.Fatalf("accepted a delta of %d bytes for a %d-byte page", len(out), len(cur))
		}
		if err := ApplyXORDelta(page, out); err != nil {
			t.Fatalf("ApplyXORDelta: %v", err)
		}
		if !bytes.Equal(page, cur) {
			t.Fatal("delta did not reproduce the page")
		}
	})
}

// FuzzFrameDecode hammers the frame decoder with arbitrary prefixes: it
// must never panic, and whatever it accepts must survive a canonical
// re-encode/decode round trip.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pf, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n < 5 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(pf.Pages) > maxFramePages || len(pf.Data) > maxFrameBody || pf.Kind == FrameCtl && len(pf.Data) > maxCtlBlob {
			t.Fatalf("decoded %s frame exceeds bounds: %d pages, %d bytes", pf.Kind, len(pf.Pages), len(pf.Data))
		}
		enc := AppendFrame(nil, pf)
		pf2, n2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		frameEq(t, pf, pf2)
	})
}

// benchChunk is the 64-page chunk the vmm pipeline frames.
const benchChunk = 64

// benchPages builds the three page shapes of the core.wirecodec.* probes:
// random content, and a resend of it with 64 bytes changed.
func benchPages() (random, resend []byte) {
	rng := rand.New(rand.NewSource(6))
	random = make([]byte, PageSize)
	rng.Read(random)
	resend = append([]byte(nil), random...)
	for i := 512; i < 576; i++ {
		resend[i] ^= 0x55
	}
	return random, resend
}

func BenchmarkXORDeltaEncode(b *testing.B) {
	random, resend := benchPages()
	zero := make([]byte, PageSize)
	for _, bc := range []struct {
		name     string
		old, cur []byte
	}{
		{"random-nil", nil, random},
		{"zero-nil", nil, zero},
		{"sparse", random, resend},
		{"identical", random, random},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]byte, 0, 2*PageSize)
			b.ReportAllocs()
			b.SetBytes(PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = XORDeltaEncode(dst, bc.old, bc.cur)
			}
		})
	}
}

var benchSink []byte

func BenchmarkApplyXORDelta(b *testing.B) {
	random, resend := benchPages()
	delta := XORDeltaEncode(nil, random, resend)
	page := append([]byte(nil), random...)
	b.ReportAllocs()
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Applying the same XOR delta twice restores the page.
		if err := ApplyXORDelta(page, delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodePages encodes 64-page chunks with the production encoder,
// against the baselines a pre-copy source hands it: first-touch random and
// all-zero pages against the nil (zero-page) baseline, a resend with 64
// bytes changed per page against the shipped content, and an unchanged
// resend against the captured bytes themselves.
func BenchmarkEncodePages(b *testing.B) {
	random, resend := benchPages()
	pages := make([]int, benchChunk)
	for i := range pages {
		pages[i] = i
	}
	fill := func(page []byte) []byte { return bytes.Repeat(page, benchChunk) }
	of := func(page []byte) [][]byte {
		base := make([][]byte, benchChunk)
		for i := range base {
			base[i] = page
		}
		return base
	}
	run := func(b *testing.B, src []byte, base [][]byte) {
		b.ReportAllocs()
		b.SetBytes(benchChunk * PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data := GetBuf(len(src))
			copy(data, src)
			raw, delta, _ := EncodePages(pages, data, base)
			raw.Release()
			delta.Release()
		}
	}
	b.Run("random", func(b *testing.B) { run(b, fill(random), of(nil)) })
	b.Run("zero", func(b *testing.B) { run(b, make([]byte, benchChunk*PageSize), of(nil)) })
	b.Run("sparse", func(b *testing.B) { run(b, fill(resend), of(random)) })
	b.Run("identical", func(b *testing.B) { run(b, fill(random), of(random)) })
}

// BenchmarkEncodeChunk encodes 64-page chunks the three ways a pre-copy
// stream meets them: first-touch random, all zero (both against an empty
// cache), and a resend with 64 bytes changed per page. It measures
// EncodeChunk's DeltaCache path, the one the benchmark's wirecodec probe
// takes; BenchmarkEncodePages measures the encoder the page stream runs.
func BenchmarkEncodeChunk(b *testing.B) {
	random, resend := benchPages()
	pages := make([]int, benchChunk)
	for i := range pages {
		pages[i] = i
	}
	fill := func(page []byte) []byte { return bytes.Repeat(page, benchChunk) }
	run := func(b *testing.B, src []byte, cache func() DeltaCache) {
		b.ReportAllocs()
		b.SetBytes(benchChunk * PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data := GetBuf(len(src))
			copy(data, src)
			raw, delta, _ := EncodeChunk(pages, data, cache())
			raw.Release()
			delta.Release()
		}
	}
	fresh := func() DeltaCache { return DeltaCache{} }
	b.Run("random", func(b *testing.B) { run(b, fill(random), fresh) })
	b.Run("zero", func(b *testing.B) { run(b, make([]byte, benchChunk*PageSize), fresh) })
	b.Run("sparse", func(b *testing.B) {
		// Alternate between the two contents so every pass is a resend
		// against what the previous one left in the cache.
		cache := DeltaCache{}
		srcs := [2][]byte{fill(random), fill(resend)}
		data := GetBuf(len(srcs[0]))
		copy(data, srcs[0])
		raw, delta, _ := EncodeChunk(pages, data, cache)
		raw.Release()
		delta.Release()
		b.ReportAllocs()
		b.SetBytes(benchChunk * PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data := GetBuf(len(srcs[0]))
			copy(data, srcs[(i+1)%2])
			raw, delta, _ := EncodeChunk(pages, data, cache)
			raw.Release()
			delta.Release()
		}
	})
}
