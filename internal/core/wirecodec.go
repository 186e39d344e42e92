package core

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"repro/internal/ledger"
)

// Binary wire codec of the migration stream. Everything a Transport
// carries is a length-prefixed frame, control messages and bulk data alike,
// and no frame depends on one sent before it — a connection has no
// encoder state to set up:
//
//	u32 LE body-len | u8 kind | uvarint npages | uvarint page gaps
//	                | [npages × uvarint delta sizes]   (FrameDelta only)
//	                | data
//	u32 LE body-len | u8 kind | u8 MsgKind | u32 LE Frames | blob   (FrameCtl)
//
// Page numbers are strictly ascending (CollectDirty order), so after the
// first absolute number each page is encoded as the gap to its
// predecessor — one or two bytes for typical dirty clusters. The body
// length lets a reader skip or bound a frame before parsing it; decode
// enforces maxFrameBody/maxFramePages/maxCtlBlob so truncated or hostile
// prefixes fail instead of over-allocating.

// PageSize is the guest page granularity the bulk codec frames. It must
// match vmm.PageSize; the codec owns its own constant because core cannot
// import vmm.
const PageSize = 4096

// FrameKind labels wire frames.
type FrameKind uint8

// Frame kinds. The values are the wire encoding, so they are spelled out:
// 3 and 6 belonged to two retired kinds (a gob-encoded page chunk and
// DEFLATE-compressed raw pages) and decode as unknown.
const (
	FrameRaw   FrameKind = 1 // full pages: npages × PageSize bytes
	FrameDelta FrameKind = 2 // XOR+RLE deltas vs the previous round's content
	FrameBlob  FrameKind = 4 // opaque bulk segment (checkpoint, device state)
	FrameEnd   FrameKind = 5 // stream terminator, no payload
	FrameCtl   FrameKind = 7 // one control Message: kind, Frames, blob
)

func (k FrameKind) String() string {
	switch k {
	case FrameRaw:
		return "raw"
	case FrameDelta:
		return "delta"
	case FrameBlob:
		return "blob"
	case FrameEnd:
		return "end"
	case FrameCtl:
		return "ctl"
	default:
		return fmt.Sprintf("FrameKind(%d)", uint8(k))
	}
}

// Decode bounds. A frame body is at most one chunk of pages plus headers
// (the vmm pipeline frames 64-page chunks; blob segments are 256 KiB), so
// 16 MiB is generous without letting a hostile length prefix allocate
// arbitrarily. A control message carries a quote, a public key or a sealed
// key — under 1 KiB; anything big is announced in Frames and follows as
// FrameBlob segments (sendBulk).
const (
	maxFrameBody  = 16 << 20
	maxFramePages = 1 << 16
	maxCtlBlob    = 64 << 10
)

// ctlHeader is the FrameCtl body before the blob: kind, MsgKind, Frames.
const ctlHeader = 1 + 1 + 4

// ErrFrameTruncated is returned when a buffer ends before the frame its
// length prefix promises.
var ErrFrameTruncated = errors.New("core: truncated frame")

// PageFrame is one decoded bulk frame.
//
// FrameRaw:   Pages lists the page numbers, Data holds len(Pages)×PageSize
//
//	bytes in the same order; Sizes is nil.
//
// FrameDelta: Sizes[i] is the byte length of page Pages[i]'s XOR+RLE delta
//
//	inside Data (deltas are concatenated in page order).
//
// FrameBlob:  Data is an opaque segment; Pages/Sizes are nil.
// FrameEnd:   everything empty.
// FrameCtl:   Msg and Frames are the Message's Kind and Frames, Data its
//
//	Blob; Pages/Sizes are nil.
type PageFrame struct {
	Kind  FrameKind
	Pages []int
	Sizes []int
	Data  []byte

	Msg    MsgKind // FrameCtl only
	Frames uint32  // FrameCtl only

	buf []byte // pooled backing buffer, returned by Release
}

// Release returns the frame's pooled backing buffer, if any. Data (and
// anything aliasing it) must not be touched afterwards. Safe on nil and on
// frames that do not own a pooled buffer.
func (f *PageFrame) Release() {
	if f == nil || f.buf == nil {
		return
	}
	PutBuf(f.buf)
	f.buf = nil
	f.Data = nil
}

// bufPools recycle bulk-path byte buffers (page chunks, encoded frames,
// delta scratch). Buffers are pooled at whatever capacity they grew to;
// GetBuf re-slices to the requested length when capacity suffices and
// allocates otherwise — and then the undersized buffer it drew is lost to
// the pool. Two pools, split at half a bulk segment, keep that from
// compounding: a small checkpoint's frames moving while a page stream is
// running (a live migration's channel legs) no longer hand the stream's
// next 256 KiB request a 60 KiB buffer to throw away.
var bufPools [2]sync.Pool

// poolFor picks the pool for a buffer of n bytes (requested or held).
func poolFor(n int) *sync.Pool {
	if n < bulkSegment/2 {
		return &bufPools[0]
	}
	return &bufPools[1]
}

// GetBuf returns a length-n byte buffer from the pool. Pair every GetBuf
// with a PutBuf (directly or via PageFrame.Release) once the buffer is no
// longer referenced.
func GetBuf(n int) []byte {
	b, _ := poolFor(n).Get().([]byte)
	if cap(b) < n {
		b = make([]byte, n, bufClass(n))
	}
	if cap(b) > 0 {
		pooledBufs.Add(1)
	}
	return b[:n]
}

// pooledBufs counts the buffers GetBuf handed out that PutBuf has not had
// back.
var pooledBufs = ledger.New("pooled-buf")

// bulkClass is the one capacity of every buffer the bulk pool hands out
// for a request up to it: a bulk segment plus one page. It fits a 64-page
// capture buffer (256 KiB), the encoding of the frame made from it (a few
// hundred bytes more) and a blob segment's body and encoding bound, so
// none of those requests drops a buffer another of them returned.
const bulkClass = bulkSegment + PageSize

// bufClass is the capacity a new n-byte buffer gets: bulkClass for a
// request the bulk pool serves and bulkClass fits, otherwise n rounded up
// to whole pages. The few bytes between a frame's body (what readFrameBody
// asks for) and the bound on its encoding (what WriteFrame and the pipe ask
// for) then do not decide whether a pooled buffer fits the next request.
func bufClass(n int) int {
	if poolFor(n) == &bufPools[1] && n <= bulkClass {
		return bulkClass
	}
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// PutBuf returns a buffer obtained from GetBuf to the pool.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	pooledBufs.Add(-1)
	poolFor(cap(b)).Put(b[:0:cap(b)]) //nolint:staticcheck // []byte in an any-pool allocates a header; acceptable vs 256 KiB payloads
}

// NewRawFrame returns a FrameRaw frame for the given (strictly ascending)
// page numbers with a pooled, zero-copy Data buffer of the right size:
// callers fill f.Data (e.g. GuestMemory.CopyPages) and hand the frame to
// SendFrame, which releases the buffer.
func NewRawFrame(pages []int) *PageFrame {
	data := GetBuf(len(pages) * PageSize)
	return &PageFrame{Kind: FrameRaw, Pages: pages, Data: data, buf: data}
}

// DeltaCache holds the last content this side shipped for each page, the
// baseline XOR deltas are computed against. A page without an entry has
// never been sent with a non-zero byte: the peer's fresh guest memory
// still holds zeros there, so its baseline is the implicit zero page and
// the mostly-zero pages of the bulk round compress too.
type DeltaCache map[int][]byte

// EncodeChunk is EncodePages with the baselines kept in cache: each page's
// baseline is its entry, and the cache is then updated to the captured
// content by applying the frames to it as the peer will, so it always
// mirrors what the peer holds after applying them in FIFO order. A page
// that is still all zero gets no entry (absence already says so), and once
// a page has an entry it is updated in place, back to zeros included.
func EncodeChunk(pages []int, data []byte, cache DeltaCache) (raw, delta *PageFrame, saved int64) {
	base := make([][]byte, len(pages))
	for i, p := range pages {
		base[i] = cache[p]
	}
	raw, delta, saved = EncodePages(pages, data, base)
	if raw != nil {
		for i, p := range raw.Pages {
			page := raw.Data[i*PageSize : (i+1)*PageSize]
			if old := cache[p]; old != nil {
				copy(old, page)
			} else {
				cache[p] = append([]byte(nil), page...)
			}
		}
	}
	if delta != nil {
		off := 0
		for i, p := range delta.Pages {
			d := delta.Data[off : off+delta.Sizes[i]]
			off += len(d)
			old := cache[p]
			if old == nil {
				if len(d) == 0 {
					continue // still zero
				}
				old = make([]byte, PageSize)
				cache[p] = old
			}
			// The encoder's own output: it cannot overrun the page.
			_ = ApplyXORDelta(old, d)
		}
	}
	return raw, delta, saved
}

// EncodePages turns one chunk of captured pages into wire frames against
// explicit baselines: base[i] is what the peer holds for pages[i], nil for
// the zero page, and may alias the page's own captured bytes (a page
// unchanged since it was shipped: an empty delta). Pages whose XOR+RLE
// delta is smaller than the raw page go into a FrameDelta, the rest into a
// FrameRaw (either may be nil when empty). data holds len(pages)×PageSize
// captured bytes in page order; EncodePages takes ownership: the raw pages
// are compacted to its front in place and it becomes the FrameRaw's buffer,
// or goes back to the pool. saved is the logical-minus-wire payload byte
// reduction the deltas achieved.
func EncodePages(pages []int, data []byte, base [][]byte) (raw, delta *PageFrame, saved int64) {
	n := len(pages)
	rawPages := make([]int, 0, n)
	rawLen := 0
	deltaPages := make([]int, 0, n)
	deltaSizes := make([]int, 0, n)
	// Every delta is smaller than its page, and the encoder never appends
	// past that, so the appends below stay inside this buffer.
	deltaData := GetBuf(n * PageSize)
	deltaLen := 0
	for i, p := range pages {
		cur := data[i*PageSize : (i+1)*PageSize]
		if out := XORDeltaEncode(deltaData[:deltaLen], base[i], cur); out != nil {
			sz := len(out) - deltaLen
			deltaLen = len(out)
			deltaPages = append(deltaPages, p)
			deltaSizes = append(deltaSizes, sz)
			saved += int64(PageSize - sz)
			continue
		}
		// rawLen ≤ i×PageSize: the move only overwrites pages already
		// encoded, never a later page or its baseline.
		if rawLen < i*PageSize {
			copy(data[rawLen:], cur)
		}
		rawLen += PageSize
		rawPages = append(rawPages, p)
	}
	if len(rawPages) > 0 {
		raw = &PageFrame{Kind: FrameRaw, Pages: rawPages, Data: data[:rawLen], buf: data}
	} else {
		PutBuf(data)
	}
	if len(deltaPages) > 0 {
		delta = &PageFrame{Kind: FrameDelta, Pages: deltaPages, Sizes: deltaSizes, Data: deltaData[:deltaLen], buf: deltaData}
	} else {
		PutBuf(deltaData)
	}
	return raw, delta, saved
}

// encodedFrameSize returns an upper bound on AppendFrame's output for f,
// so callers can size a pooled buffer that will not reallocate.
func encodedFrameSize(f *PageFrame) int {
	// 4 length + 1 kind + uvarints (≤ 10 bytes each): npages, one gap per
	// page, one size per page (delta only).
	return 5 + 10 + 20*len(f.Pages) + len(f.Data)
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. Page numbers must be strictly ascending; FrameDelta frames must
// carry one size per page summing to len(Data); a FrameCtl blob must fit
// maxCtlBlob (Transport.Send checks).
func AppendFrame(dst []byte, f *PageFrame) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, byte(f.Kind))
	if f.Kind == FrameCtl {
		dst = append(dst, byte(f.Msg))
		dst = binary.LittleEndian.AppendUint32(dst, f.Frames)
		dst = append(dst, f.Data...)
		binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Pages)))
	prev := 0
	for i, p := range f.Pages {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(p))
		} else {
			dst = binary.AppendUvarint(dst, uint64(p-prev))
		}
		prev = p
	}
	if f.Kind == FrameDelta {
		for _, s := range f.Sizes {
			dst = binary.AppendUvarint(dst, uint64(s))
		}
	}
	dst = append(dst, f.Data...)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// checkFrameKind refuses an unknown frame kind and a body longer than the
// kind allows — all a reader needs to know before it sizes a buffer.
func checkFrameKind(kind FrameKind, bodyLen int) error {
	switch kind {
	case FrameRaw, FrameDelta, FrameBlob, FrameEnd:
	case FrameCtl:
		if bodyLen > ctlHeader+maxCtlBlob {
			return fmt.Errorf("core: control frame body %d exceeds cap %d", bodyLen, ctlHeader+maxCtlBlob)
		}
	default:
		return fmt.Errorf("core: unknown frame kind %d", uint8(kind))
	}
	return nil
}

// decodeFrameBody parses one frame body (everything after the length
// prefix). Pages, Sizes, and Data alias body.
func decodeFrameBody(body []byte) (*PageFrame, error) {
	if len(body) < 1 {
		return nil, ErrFrameTruncated
	}
	f := &PageFrame{Kind: FrameKind(body[0])}
	if err := checkFrameKind(f.Kind, len(body)); err != nil {
		return nil, err
	}
	if f.Kind == FrameCtl {
		if len(body) < ctlHeader {
			return nil, ErrFrameTruncated
		}
		f.Msg = MsgKind(body[1])
		f.Frames = binary.LittleEndian.Uint32(body[2:])
		f.Data = body[ctlHeader:]
		return f, nil
	}
	rest := body[1:]
	npages, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, ErrFrameTruncated
	}
	rest = rest[n:]
	if npages > maxFramePages {
		return nil, fmt.Errorf("core: frame claims %d pages, cap is %d", npages, maxFramePages)
	}
	if npages > 0 {
		if f.Kind != FrameRaw && f.Kind != FrameDelta {
			return nil, fmt.Errorf("core: %s frame carries page numbers", f.Kind)
		}
		f.Pages = make([]int, npages)
		prev := uint64(0)
		for i := range f.Pages {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil, ErrFrameTruncated
			}
			rest = rest[n:]
			if i > 0 {
				if v == 0 {
					return nil, errors.New("core: frame pages not strictly ascending")
				}
				if v > maxFrameBody {
					// Bounds the gap before adding so a 2^64-wrapping gap
					// cannot smuggle in a descending page number.
					return nil, fmt.Errorf("core: frame page gap %d out of range", v)
				}
				v += prev
			}
			if v > maxFrameBody { // page numbers bound guest memory, not frame size, but reuse the cap
				return nil, fmt.Errorf("core: frame page number %d out of range", v)
			}
			f.Pages[i] = int(v)
			prev = v
		}
	}
	switch f.Kind {
	case FrameRaw:
		if len(rest) != len(f.Pages)*PageSize {
			return nil, fmt.Errorf("core: raw frame has %d data bytes for %d pages", len(rest), len(f.Pages))
		}
	case FrameDelta:
		f.Sizes = make([]int, len(f.Pages))
		total := 0
		for i := range f.Sizes {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil, ErrFrameTruncated
			}
			rest = rest[n:]
			if v > PageSize {
				return nil, fmt.Errorf("core: delta size %d exceeds page size", v)
			}
			f.Sizes[i] = int(v)
			total += int(v)
		}
		if len(rest) != total {
			return nil, fmt.Errorf("core: delta frame has %d data bytes, sizes sum to %d", len(rest), total)
		}
	case FrameBlob, FrameCtl: // any payload; a control frame returned above
	case FrameEnd:
		if len(rest) != 0 {
			return nil, errors.New("core: end frame carries payload")
		}
	}
	f.Data = rest
	return f, nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The frame's Data aliases b.
func DecodeFrame(b []byte) (*PageFrame, int, error) {
	if len(b) < 4 {
		return nil, 0, ErrFrameTruncated
	}
	bodyLen := binary.LittleEndian.Uint32(b)
	if bodyLen > maxFrameBody {
		return nil, 0, fmt.Errorf("core: frame body %d exceeds cap %d", bodyLen, maxFrameBody)
	}
	if len(b) < 4+int(bodyLen) {
		return nil, 0, ErrFrameTruncated
	}
	f, err := decodeFrameBody(b[4 : 4+bodyLen])
	if err != nil {
		return nil, 0, err
	}
	return f, 4 + int(bodyLen), nil
}

// WriteFrame encodes f to w in a single Write (one pooled buffer, one
// syscall on a net.Conn).
func WriteFrame(w io.Writer, f *PageFrame) error {
	buf := GetBuf(encodedFrameSize(f))[:0]
	buf = AppendFrame(buf, f)
	_, err := w.Write(buf)
	PutBuf(buf)
	return err
}

// ReadFrame reads one frame of any kind from r. The returned frame's Data
// aliases a pooled buffer; the caller must Release it when done.
func ReadFrame(r io.Reader) (*PageFrame, error) {
	kind, bodyLen, err := readFrameHeader(r)
	if err != nil {
		return nil, err
	}
	return readFrameBody(r, kind, bodyLen)
}

// readFrameHeader reads a frame's length prefix and kind byte and refuses
// a length its kind cannot have. Nothing has been allocated when it
// returns, so a reader that expects one class of frame can refuse the
// other here.
func readFrameHeader(r io.Reader) (FrameKind, int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, err
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[:])
	if bodyLen > maxFrameBody {
		return 0, 0, fmt.Errorf("core: frame body %d exceeds cap %d", bodyLen, maxFrameBody)
	}
	if bodyLen == 0 {
		return 0, 0, ErrFrameTruncated
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, 0, fmt.Errorf("core: frame body: %w", noEOF(err))
	}
	kind := FrameKind(hdr[4])
	return kind, int(bodyLen), checkFrameKind(kind, int(bodyLen))
}

// noEOF turns the io.EOF of a stream that ends inside a frame into
// io.ErrUnexpectedEOF: a clean EOF is only one at a frame boundary.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFrameBody reads the rest of a frame whose header readFrameHeader
// returned.
func readFrameBody(r io.Reader, kind FrameKind, bodyLen int) (*PageFrame, error) {
	buf := GetBuf(bodyLen)
	buf[0] = byte(kind)
	if _, err := io.ReadFull(r, buf[1:]); err != nil {
		PutBuf(buf)
		return nil, fmt.Errorf("core: frame body: %w", noEOF(err))
	}
	f, err := decodeFrameBody(buf)
	if err != nil {
		PutBuf(buf)
		return nil, err
	}
	f.buf = buf
	return f, nil
}

// XORDeltaEncode appends an XOR+RLE delta of new vs old to dst and
// returns the extended slice, or nil when the delta would not be smaller
// than sending the page raw. old == nil means the zero page: the first
// time a page is sent its baseline is all-zero guest memory, so
// mostly-zero pages compress on the bulk round too. The encoding is a
// sequence of {uvarint zero-run length, uvarint literal length, literal
// XOR bytes} covering the page; a trailing equal run is implicit, so an
// identical page encodes as an empty delta. dst never grows past
// len(dst)+len(new): the encoder gives up before appending the record
// that would reach it.
func XORDeltaEncode(dst, old, new []byte) []byte {
	limit := len(dst) + len(new) // at or beyond this, raw is cheaper
	i := 0
	run := equalRun(old, new, 0)
	for run < len(new) {
		// new[run] differs. Extend the literal over differing bytes and
		// over equal runs too short to be worth a new {skip, len} header
		// (3 bytes): only an equal run of at least 4, or one reaching the
		// end of the page, ends it.
		lit, eq := run, 0
		for {
			lit += diffRun(old, new, lit)
			eq = equalRun(old, new, lit)
			if eq >= 4 || lit+eq == len(new) {
				break
			}
			lit += eq
		}
		skip, n := uint64(run-i), lit-run
		if len(dst)+uvarintLen(skip)+uvarintLen(uint64(n))+n >= limit {
			return nil
		}
		dst = binary.AppendUvarint(dst, skip)
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = append(dst, new[run:lit]...)
		if old != nil {
			subtle.XORBytes(dst[len(dst)-n:], dst[len(dst)-n:], old[run:lit])
		}
		i, run = lit, lit+eq
	}
	return dst
}

// Byte-lane constants of the word-at-a-time scans below.
const (
	lanesLo = 0x0101010101010101
	lanesHi = 0x8080808080808080
)

// scanBlock is the stride at which equalRun compares whole blocks with the
// runtime's vector memequal before it looks at single words.
const scanBlock = 64

// zeroBlock is the nil baseline's block for equalRun.
var zeroBlock [scanBlock]byte

// deltaWord loads the eight bytes of new^old at k (old == nil: the zero
// page, so new itself).
func deltaWord(old, new []byte, k int) uint64 {
	x := binary.LittleEndian.Uint64(new[k:])
	if old != nil {
		x ^= binary.LittleEndian.Uint64(old[k:])
	}
	return x
}

// differs reports whether new[k] differs from the baseline byte.
func differs(old, new []byte, k int) bool {
	if old == nil {
		return new[k] != 0
	}
	return new[k] != old[k]
}

// equalRun returns how many bytes of new, from k on, equal the baseline:
// the position of the first non-zero byte of new^old. Whole 64-byte blocks
// are skipped with bytes.Equal, the block that differs is searched eight
// bytes a step.
func equalRun(old, new []byte, k int) int {
	i := k
	for ; i+scanBlock <= len(new); i += scanBlock {
		base := zeroBlock[:]
		if old != nil {
			base = old[i : i+scanBlock]
		}
		if !bytes.Equal(new[i:i+scanBlock], base) {
			break
		}
	}
	for ; i+8 <= len(new); i += 8 {
		if x := deltaWord(old, new, i); x != 0 {
			return i + bits.TrailingZeros64(x)/8 - k
		}
	}
	for i < len(new) && !differs(old, new, i) {
		i++
	}
	return i - k
}

// diffRun returns how many bytes of new, from k on, differ from the
// baseline: the position of the first zero byte of new^old. Against the
// zero page that is the first zero byte of new itself, which
// bytes.IndexByte finds at vector speed. Against a real baseline the scan
// goes eight bytes a step: (x-lanesLo)&^x sets the high bit of every zero
// lane of x; a borrow can also flag a 0x01 lane, but only above a zero one,
// so the lowest flag is exact.
func diffRun(old, new []byte, k int) int {
	if old == nil {
		if j := bytes.IndexByte(new[k:], 0); j >= 0 {
			return j
		}
		return len(new) - k
	}
	i := k
	for ; i+8 <= len(new); i += 8 {
		x := deltaWord(old, new, i)
		if z := (x - lanesLo) &^ x & lanesHi; z != 0 {
			return i + bits.TrailingZeros64(z)/8 - k
		}
	}
	for i < len(new) && differs(old, new, i) {
		i++
	}
	return i - k
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// ApplyXORDelta applies a delta produced by XORDeltaEncode to page in
// place. An empty delta is a valid no-op (the page was re-dirtied with
// identical content).
func ApplyXORDelta(page, delta []byte) error {
	pos := 0
	for len(delta) > 0 {
		skip, n := binary.Uvarint(delta)
		if n <= 0 {
			return ErrFrameTruncated
		}
		delta = delta[n:]
		lit, n := binary.Uvarint(delta)
		if n <= 0 {
			return ErrFrameTruncated
		}
		delta = delta[n:]
		if skip > uint64(len(page)-pos) || lit > uint64(len(page)-pos)-skip {
			return errors.New("core: delta overruns page")
		}
		pos += int(skip)
		if lit > uint64(len(delta)) {
			return ErrFrameTruncated
		}
		subtle.XORBytes(page[pos:pos+int(lit)], page[pos:pos+int(lit)], delta[:lit])
		pos += int(lit)
		delta = delta[lit:]
	}
	return nil
}
