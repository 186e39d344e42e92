package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/enclave"
	"repro/internal/ledger"
	"repro/internal/sgx"
)

// frameWindow is an enclave's untrusted memory as a migration moves its
// checkpoint: the request area [0, enclave.SharedCkptOff) is the runtime's
// shared region, and the checkpoint window after it, up to max bytes, is a
// row of pooled FrameBlob frames of bulkSegment bytes each, the last one
// possibly short — the frames the checkpoint crosses the wire in. The
// source's dump seals into frames that go to SendFrame as they are
// published (send); the target keeps the frames it received (recvWindow)
// and its restore reads them in place. So neither host copies the
// checkpoint, and neither holds it in one contiguous buffer. The enclave
// code is the same as over a shared region: it stores its output and loads
// its input through sgx.OutsideMemory, and the restore still loads every
// byte once into enclave-private memory before it checks any.
//
// Pair every newFrameWindow with a release, which hands every frame still
// held back to the pool.
type frameWindow struct {
	req sgx.OutsideMemory
	max int

	mu     sync.Mutex
	frames []*PageFrame // guarded by mu; frames[i] holds window bytes [i*bulkSegment, …), nil when not stored yet or sent
	sent   int          // guarded by mu; frames handed to the transport, in order
}

var _ sgx.OutsideMemory = (*frameWindow)(nil)

// heldFrames counts the frames held by every frame window in the process.
// It is zero whenever no migration is moving a checkpoint.
var heldFrames = ledger.New("frame-window")

// errWindowRange refuses an access a checkpoint window cannot serve.
var errWindowRange = errors.New("core: checkpoint window access out of range")

// newFrameWindow returns an empty window of max bytes over the request area
// of req.
func newFrameWindow(req sgx.OutsideMemory, max int) *frameWindow {
	return &frameWindow{req: req, max: max}
}

// Size implements sgx.OutsideMemory.
func (w *frameWindow) Size() uint64 { return enclave.SharedCkptOff + uint64(w.max) }

// Load implements sgx.OutsideMemory. A load from the checkpoint window
// reads frames already stored or received.
func (w *frameWindow) Load(off uint64, b []byte) error { return w.access(off, b, false) }

// Store implements sgx.OutsideMemory. A store to the checkpoint window
// takes a frame from the pool for each stretch it is the first to reach.
// Stores to disjoint bytes may run concurrently, as the dump's seal workers
// do.
func (w *frameWindow) Store(off uint64, b []byte) error { return w.access(off, b, true) }

func (w *frameWindow) access(off uint64, b []byte, store bool) error {
	if off < enclave.SharedCkptOff {
		if uint64(len(b)) > enclave.SharedCkptOff-off {
			return errWindowRange
		}
		if store {
			return w.req.Store(off, b)
		}
		return w.req.Load(off, b)
	}
	off -= enclave.SharedCkptOff
	if off > uint64(w.max) || uint64(len(b)) > uint64(w.max)-off {
		return errWindowRange
	}
	for len(b) > 0 {
		i, in := int(off/bulkSegment), int(off%bulkSegment)
		data, err := w.frame(i, store)
		if err != nil {
			return err
		}
		if in >= len(data) {
			return errWindowRange
		}
		var n int
		if store {
			n = copy(data[in:], b)
		} else {
			n = copy(b, data[in:])
		}
		b, off = b[n:], off+uint64(n)
	}
	return nil
}

// frame returns frame i's bytes, taking the frame from the pool first for
// a store (alloc) that is the first to reach it. The bytes are accessed
// outside the lock: concurrent stores write disjoint bytes, and a frame is
// sent or released only once nothing accesses it any more.
func (w *frameWindow) frame(i int, alloc bool) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case i < w.sent:
		return nil, fmt.Errorf("%w: frame %d already sent", errWindowRange, i)
	case i < len(w.frames) && w.frames[i] != nil:
		return w.frames[i].Data, nil
	case !alloc:
		return nil, fmt.Errorf("%w: no frame %d", errWindowRange, i)
	}
	for len(w.frames) <= i {
		w.frames = append(w.frames, nil)
	}
	// The buffer is taken at the size of a full segment's encoding, not of
	// its data: the pipe's encoded frames and the conn reader's frame
	// bodies are that size, so all three draw buffers of one class from
	// the pool and none is dropped there for being a few bytes short.
	data := GetBuf(bulkSegment + encodedFrameSize(&PageFrame{Kind: FrameBlob}))[:bulkSegment]
	w.frames[i] = &PageFrame{Kind: FrameBlob, Data: data, buf: data}
	heldFrames.Add(1)
	return w.frames[i].Data, nil
}

// hold appends a received frame to the window.
func (w *frameWindow) hold(f *PageFrame) {
	w.mu.Lock()
	w.frames = append(w.frames, f)
	w.mu.Unlock()
	heldFrames.Add(1)
}

// send hands the window's stretch [off, end) — the next frame in order,
// final in every byte — to t uncopied. The frame leaves the window:
// SendFrame owns it from here.
func (w *frameWindow) send(t Transport, off, end int) error {
	w.mu.Lock()
	i := off / bulkSegment
	var f *PageFrame
	if i == w.sent && i < len(w.frames) {
		f, w.frames[i] = w.frames[i], nil
	}
	if f != nil {
		w.sent++
	}
	w.mu.Unlock()
	if f == nil {
		return fmt.Errorf("%w: dump published window bytes %d..%d it never stored", ErrProtocol, off, end)
	}
	heldFrames.Add(-1)
	f.Data = f.Data[:end-off]
	return t.SendFrame(f)
}

// release returns every frame the window still holds to the pool. The
// window reads nothing afterwards; a second release does nothing.
func (w *frameWindow) release() {
	w.mu.Lock()
	frames := w.frames
	w.frames = nil
	w.mu.Unlock()
	for _, f := range frames {
		if f != nil {
			f.Release()
			heldFrames.Add(-1)
		}
	}
}

// recvWindow receives a MsgCheckpoint sent with sendBulk and keeps its
// FrameBlob segments, in order, as the checkpoint window of a frameWindow
// over req, the target enclave's shared region; it returns the window and
// the payload length. Nothing is copied: the restore reads the frames as
// they arrived. maxBytes is the largest payload a legitimate peer can send;
// an announcement of more frames than that fills is refused before any
// frame is read, and so is a checkpoint announced with no frames, a frame of
// another kind, an empty segment, a segment other than the last that is not
// bulkSegment long, a longer last one, and a payload that runs past
// maxBytes. The window is released on every refusal.
func recvWindow(t Transport, req sgx.OutsideMemory, maxBytes int) (*frameWindow, int, error) {
	m, err := recvKind(t, MsgCheckpoint)
	if err != nil {
		return nil, 0, err
	}
	if maxFrames := (maxBytes + bulkSegment - 1) / bulkSegment; m.Frames == 0 || int64(m.Frames) > int64(maxFrames) {
		return nil, 0, fmt.Errorf("%w: checkpoint announces %d bulk frames, want 1 to %d for the %d bytes allowed", ErrProtocol, m.Frames, maxFrames, maxBytes)
	}
	w := newFrameWindow(req, maxBytes)
	n := 0
	for i := uint32(0); i < m.Frames; i++ {
		f, err := t.RecvFrame()
		if err != nil {
			w.release()
			return nil, 0, err
		}
		w.hold(f)
		switch size := len(f.Data); {
		case f.Kind != FrameBlob:
			err = fmt.Errorf("%w: %s frame inside a checkpoint", ErrProtocol, f.Kind)
		case size == 0:
			err = fmt.Errorf("%w: empty checkpoint segment %d", ErrProtocol, i)
		case size > bulkSegment || (i+1 < m.Frames && size != bulkSegment):
			err = fmt.Errorf("%w: checkpoint segment %d of %d carries %d bytes, want %d", ErrProtocol, i, m.Frames, size, bulkSegment)
		case size > maxBytes-n:
			err = fmt.Errorf("%w: checkpoint payload overruns the %d bytes allowed", ErrProtocol, maxBytes)
		}
		if err != nil {
			w.release()
			return nil, 0, err
		}
		n += len(f.Data)
	}
	return w, n, nil
}

// watchedMemory reports the stores to one word of an outside memory.
type watchedMemory struct {
	sgx.OutsideMemory
	off   uint64
	watch func(uint64)
}

// Store implements sgx.OutsideMemory.
func (w watchedMemory) Store(off uint64, b []byte) error {
	if err := w.OutsideMemory.Store(off, b); err != nil {
		return err
	}
	if off == w.off && len(b) == 8 {
		w.watch(binary.LittleEndian.Uint64(b))
	}
	return nil
}
