package enclave

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ledger"
	"repro/internal/sgx"
	"repro/internal/tcb"
)

// The checkpoint format. The control thread encrypts the enclave's pages
// inside the enclave (paper Sec. IV) into
//
//	header ‖ leaf 0 ‖ … ‖ leaf n-1 ‖ final
//
// The header (MarshalHeader) is plaintext and carries a fresh salt. Each
// leaf is up to ckptLeafRecords page records — (lin u32 LE, 4 KiB page), one
// per non-TCS page in linear order, the last leaf possibly short — sealed in
// place as one tcb.LeafSealer record under its index. The final record,
// sealed under index n, holds n. Every record's additional data is header ‖
// index ‖ n, so its tag (AEAD, or encrypt-then-MAC for RC4 and DES) refuses
// a record that is altered, dropped, repeated, moved or taken from another
// checkpoint, and the final record refuses a truncated one. The tags are the
// whole integrity check: only the holders of the checkpoint key — the two
// enclaves (Kmigrate) or the owner (Kencrypt) — can seal a record, and the
// paper trusts them. Every size follows from the enclave's layout and the
// header's cipher (ckptGeometry): neither side reads a length off the wire.

// ckptLeafRecords is a checkpoint's leaf: 256 page records, just over 1 MiB,
// sealed as one record. It is part of the format — a dump and its restore
// must agree on it whatever CPUs either side has — so it is a constant, not
// derived from the machine.
const ckptLeafRecords = 256

// ckptFinal is the plaintext of the final record: the leaf count (u32 LE).
const ckptFinal = 4

// Checkpoint refusals; restore maps them to its in-enclave error details.
var (
	errCkptBad  = errors.New("enclave: not a checkpoint of this enclave")
	errCkptAuth = errors.New("enclave: checkpoint record does not authenticate")
)

// ckptGeometry is where the records of a checkpoint sit.
type ckptGeometry struct {
	records int   // page records: one per non-TCS page
	per     int   // records per leaf
	leaves  int   // sealed leaves
	offs    []int // offs[i]: start of record i (offs[leaves]: the final record); offs[leaves+1]: the end
}

func newCkptGeometry(l Layout, c tcb.CheckpointCipher, per int) (ckptGeometry, error) {
	g := ckptGeometry{records: l.TotalPages() - l.Threads, per: per}
	g.leaves = (g.records + per - 1) / per
	g.offs = make([]int, g.leaves+2)
	g.offs[0] = HeaderWireSize(l.Threads)
	for i := 0; i <= g.leaves; i++ {
		size, err := tcb.LeafSize(c, g.plain(i))
		if err != nil {
			return g, err
		}
		g.offs[i+1] = g.offs[i] + size
	}
	return g, nil
}

// plain is record i's plaintext size.
func (g ckptGeometry) plain(i int) int {
	if i == g.leaves {
		return ckptFinal
	}
	return min(g.per, g.records-i*g.per) * ckptRecord
}

// size is the checkpoint's length.
func (g ckptGeometry) size() int { return g.offs[g.leaves+1] }

// record is sealed record i's span of buf.
func (g ckptGeometry) record(buf []byte, i int) []byte { return buf[g.offs[i]:g.offs[i+1]] }

// workers runs work on up to GOMAXPROCS goroutines, the caller's among
// them once first returns, and waits for all of them. With one leaf, or one
// CPU, no goroutine is started.
func (g ckptGeometry) workers(first func(), work func()) {
	var wg sync.WaitGroup
	for w := 1; w < min(g.leaves, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	first()
	work()
	wg.Wait()
}

// ckptBufs recycles the enclave-private buffers a dump seals its checkpoint
// in and a restore opens one into, one pool per size class (ckptClass).
// Every buffer is wiped before it goes back (putCkptBuf), so a pool holds
// only zeros: the plaintext a restore opened, and the leaves a dump that
// failed part-way left unsealed, do not outlive the call that made them.
var ckptBufs [4 * bits.UintSize]sync.Pool

// ckptBufPut, if set, sees every buffer as it goes back to its pool, wiped.
// Tests use it; it is nil otherwise.
var ckptBufPut func(b []byte)

// ckptClass returns the size class of an n-byte buffer and the capacity its
// buffers have. The capacities are 5, 6, 7 and 8 times a power of two, at
// least 4 KiB, so a buffer is at most a quarter larger than asked for, and a
// capacity is its own class's.
func ckptClass(n int) (class, size int) {
	n = max(n, 4<<10)
	shift := bits.Len(uint(n-1)) - 3
	m := (n-1)>>shift + 1
	return 4*shift + m - 5, m << shift
}

// getCkptBuf returns an all-zero n-byte buffer. Pair every getCkptBuf with
// a putCkptBuf once nothing refers to the buffer any more.
func getCkptBuf(n int) []byte {
	ckptBufsHeld.Add(1)
	class, size := ckptClass(n)
	if b, ok := ckptBufs[class].Get().([]byte); ok {
		return b[:n]
	}
	return make([]byte, n, size)
}

// ckptBufsHeld counts the buffers getCkptBuf handed out that putCkptBuf has
// not had back.
var ckptBufsHeld = ledger.New("ckpt-buf")

// putCkptBuf wipes a buffer from getCkptBuf and returns it to its pool.
func putCkptBuf(b []byte) {
	ckptBufsHeld.Add(-1)
	b = b[:cap(b)]
	clear(b)
	if ckptBufPut != nil {
		ckptBufPut(b)
	}
	class, _ := ckptClass(cap(b))
	ckptBufs[class].Put(b[:0]) //nolint:staticcheck // the slice header a []byte in an any-pool allocates is nothing beside the buffer
}

// sealCheckpoint is sealLeaves over a buffer from the checkpoint pool: hdr,
// the marshalled header, is written first, and fill is handed each leaf's
// span of page records in turn to write. The buffer goes back wiped however
// the dump ends.
func sealCheckpoint(g ckptGeometry, hdr []byte, s *tcb.LeafSealer, fill func(records []byte) error, emit func(off int, b []byte) error, publish func(n int) error) error {
	buf := getCkptBuf(g.size())
	defer putCkptBuf(buf)
	copy(buf, hdr)
	return sealLeaves(g, buf, s, func(leaf int) error { return fill(g.record(buf, leaf)[:g.plain(leaf)]) }, emit, publish)
}

// sealLeaves seals the checkpoint in buf — laid out by g, its header written
// — while the page walk fills it. fill(i) writes leaf i's page records into
// place; it runs on the calling goroutine, in leaf order, and an error it
// returns ends the dump before the final record is sealed. Each filled leaf
// is sealed in place by whichever worker takes it and handed to emit with
// its offset; publish(n) reports that the first n bytes are all emitted:
// the header first, then leaf by leaf in order, then the final record.
// publish runs under a lock so that its reports stay in order, so neither
// it nor emit may block. buf must be enclave-private: the workers share it
// unlocked, which is sound only because nothing outside the enclave can
// write it.
func sealLeaves(g ckptGeometry, buf []byte, s *tcb.LeafSealer, fill func(leaf int) error, emit func(off int, b []byte) error, publish func(n int) error) error {
	hdr := buf[:g.offs[0]]
	if err := emit(0, hdr); err != nil {
		return err
	}
	if err := publish(len(hdr)); err != nil {
		return err
	}
	count := uint32(g.leaves)
	ready := make(chan int, g.leaves)
	var (
		mu     sync.Mutex
		sealed = make([]bool, g.leaves) // guarded by mu
		next   int                      // guarded by mu: leaves published
		failed error                    // guarded by mu
	)
	work := func() {
		for i := range ready {
			rec := g.record(buf, i)
			err := s.Seal(rec, g.plain(i), hdr, uint32(i), count)
			if err == nil {
				err = emit(g.offs[i], rec)
			}
			mu.Lock()
			sealed[i] = true
			from := next
			for next < g.leaves && sealed[next] {
				next++
			}
			if err == nil && failed == nil && next > from {
				err = publish(g.offs[next])
			}
			if failed == nil {
				failed = err
			}
			mu.Unlock()
		}
	}
	var walkErr error
	g.workers(func() {
		for i := 0; i < g.leaves && walkErr == nil; i++ {
			if walkErr = fill(i); walkErr == nil {
				ready <- i
			}
		}
		close(ready)
	}, work)
	if walkErr != nil {
		return walkErr
	}
	if failed != nil {
		return failed
	}
	final := g.record(buf, g.leaves)
	binary.LittleEndian.PutUint32(final, count)
	if err := s.Seal(final, ckptFinal, hdr, count, count); err != nil {
		return err
	}
	if err := emit(g.offs[g.leaves], final); err != nil {
		return err
	}
	return publish(g.size())
}

// openCheckpoint authenticates and decrypts the checkpoint of an enclave
// with layout l and measurement mr into buf, enclave-private memory whose
// length is the checkpoint's, and returns its header and each leaf's page
// records, which alias buf. load(off, dst) copies the checkpoint's bytes
// [off, off+len(dst)) out of untrusted memory. Each byte is loaded once and
// every check reads the private copy, so a host rewriting the window
// meanwhile changes nothing a check saw. Nothing is returned unless the
// header names this enclave and key kind, the length is the size the layout
// and cipher give, every leaf opens under its index and the leaf count, the
// final record holds that count, and every record names a page the enclave
// may restore. The leaves are loaded and opened on up to GOMAXPROCS
// goroutines.
func openCheckpoint(l Layout, per int, mr [32]byte, ownerKeyed bool, key tcb.Key, buf []byte, load func(off int, dst []byte) error) (CheckpointHeader, [][]byte, error) {
	n := len(buf)
	var hdr CheckpointHeader
	head := make([]byte, HeaderWireSize(l.Threads))
	if n < len(head) {
		return hdr, nil, errCkptBad
	}
	if err := load(0, head); err != nil {
		return hdr, nil, err
	}
	hdr, _, err := UnmarshalHeader(head)
	if err != nil || hdr.Measurement != mr || int(hdr.TotalPages) != l.TotalPages() ||
		int(hdr.Threads) != l.Threads || hdr.OwnerKeyed != ownerKeyed {
		return hdr, nil, errCkptBad
	}
	g, err := newCkptGeometry(l, hdr.Cipher, per)
	if err != nil || n != g.size() {
		return hdr, nil, errCkptBad
	}
	s, err := tcb.NewLeafSealer(hdr.Cipher, key, hdr.Salt[:])
	if err != nil {
		return hdr, nil, errCkptBad
	}
	count := uint32(g.leaves)
	leaves := make([][]byte, g.leaves)
	errs := make([]error, g.leaves)
	var next atomic.Int64
	g.workers(func() {}, func() {
		for i := int(next.Add(1) - 1); i < g.leaves; i = int(next.Add(1) - 1) {
			rec := g.record(buf, i)
			if errs[i] = load(g.offs[i], rec); errs[i] != nil {
				continue
			}
			pt, err := s.Open(rec, head, uint32(i), count)
			switch {
			case err != nil:
				errs[i] = errCkptAuth
			case len(pt) != g.plain(i):
				errs[i] = errCkptBad
			default:
				leaves[i] = pt
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return hdr, nil, err
		}
	}
	final := g.record(buf, g.leaves)
	if err := load(g.offs[g.leaves], final); err != nil {
		return hdr, nil, err
	}
	pt, err := s.Open(final, head, count, count)
	if err != nil {
		return hdr, nil, errCkptAuth
	}
	if len(pt) != ckptFinal || binary.LittleEndian.Uint32(pt) != count {
		return hdr, nil, errCkptBad
	}
	for _, leaf := range leaves {
		for off := 0; off < len(leaf); off += ckptRecord {
			lin := binary.LittleEndian.Uint32(leaf[off:])
			if int(lin) >= l.TotalPages() || l.IsTCS(sgx.PageNum(lin)) {
				return hdr, nil, errCkptBad
			}
		}
	}
	return hdr, leaves, nil
}

// restoreCheckpoint opens the n-byte checkpoint with openCheckpoint into a
// buffer from the checkpoint pool and, once every check has passed, hands
// apply each page record in checkpoint order. The buffer goes back wiped
// whether the checkpoint is restored or refused. n is the caller's to bound
// (MaxCheckpointSize): the buffer is taken before the header is read.
func restoreCheckpoint(l Layout, per int, mr [32]byte, ownerKeyed bool, key tcb.Key, n int, load func(off int, dst []byte) error, apply func(lin sgx.PageNum, page []byte) error) error {
	buf := getCkptBuf(n)
	defer putCkptBuf(buf)
	_, leaves, err := openCheckpoint(l, per, mr, ownerKeyed, key, buf, load)
	if err != nil {
		return err
	}
	for _, leaf := range leaves {
		for off := 0; off < len(leaf); off += ckptRecord {
			lin := sgx.PageNum(binary.LittleEndian.Uint32(leaf[off:]))
			if err := apply(lin, leaf[off+4:off+ckptRecord]); err != nil {
				return err
			}
		}
	}
	return nil
}
