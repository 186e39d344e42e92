// Package attack implements the adversaries of the paper's threat model
// (Sec. II-D, IV-A, V-A): a malicious guest OS violating checkpoint
// consistency, fork and rollback attackers, network tamperers/replayers and
// passive snoopers. The test suite drives them against the defences and
// pins every security property P-1..P-6.
package attack

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/enclave"
)

// NaiveDump models the malicious-OS data-consistency attack of Fig. 3
// combined with an SDK that has no two-phase checkpointing: the "OS"
// claims the threads are stopped (it never interrupts them) and the
// checkpoint walk runs while worker threads keep mutating enclave memory.
// It returns the (restorable) inconsistent checkpoint blob.
func NaiveDump(src *enclave.Runtime) ([]byte, error) {
	if _, err := src.CtlCall(enclave.SelCtlMigrateBegin); err != nil {
		return nil, fmt.Errorf("attack: begin: %w", err)
	}
	res, err := src.CtlCall(enclave.SelCtlDumpNaive, enclave.SharedCkptOff)
	if err != nil {
		return nil, fmt.Errorf("attack: naive dump: %w", err)
	}
	return src.ReadShared(enclave.SharedCkptOff, res[0])
}

// TwoPhaseDumpWithoutQuiescence attempts the same attack against the real
// control thread: raise the flag but never interrupt the workers, then ask
// for the dump immediately. The in-enclave quiescence check must refuse.
func TwoPhaseDumpWithoutQuiescence(src *enclave.Runtime) error {
	if _, err := src.CtlCall(enclave.SelCtlMigrateBegin); err != nil {
		return fmt.Errorf("attack: begin: %w", err)
	}
	_, err := src.CtlCall(enclave.SelCtlMigrateDump, enclave.SharedCkptOff)
	return err
}

// Tamperer wraps a transport and flips one bit in the payload of messages
// of the chosen kind. A payload that rides the wire as FrameBlob segments
// behind its announcing message (core's bulk path, the checkpoint) is
// tampered there: BitFlip counts across the segments.
type Tamperer struct {
	core.Transport
	Kind    core.MsgKind
	BitFlip int // payload byte to corrupt (negative = last byte)

	// FrameFlips counts the FrameBlob segments altered so far: proof that
	// the payload crossed this wrapper as frames and was tampered there.
	FrameFlips int

	segments uint32 // segments of the announced payload still to come
	off      int    // payload bytes of it already forwarded
}

// flipped returns a copy of b with byte idx corrupted.
func flipped(b []byte, idx int) []byte {
	b = append([]byte(nil), b...)
	b[idx] ^= 0x40
	return b
}

// Send corrupts matching messages in flight and arms SendFrame for the
// segments a matching message announces.
func (t *Tamperer) Send(m core.Message) error {
	if m.Kind == t.Kind {
		t.segments, t.off = m.Frames, 0
		if idx := t.take(len(m.Blob), true); idx >= 0 {
			m.Blob = flipped(m.Blob, idx)
		}
	}
	return t.Transport.Send(m)
}

// take consumes the next n payload bytes (last: the payload ends with them)
// and returns BitFlip's index among them, negative when it falls elsewhere.
func (t *Tamperer) take(n int, last bool) int {
	idx := t.BitFlip - t.off
	if t.BitFlip < 0 && last {
		idx = n - 1
	}
	t.off += n
	if idx >= n {
		return -1
	}
	return idx
}

// SendFrame corrupts the segment holding payload byte BitFlip.
func (t *Tamperer) SendFrame(f *core.PageFrame) error {
	if t.segments > 0 && f.Kind == core.FrameBlob {
		t.segments--
		if idx := t.take(len(f.Data), t.segments == 0); idx >= 0 {
			// A copy: the caller's buffer is the source's own checkpoint.
			bad := &core.PageFrame{Kind: core.FrameBlob, Data: flipped(f.Data, idx)}
			f.Release()
			f = bad
			t.FrameFlips++
		}
	}
	return t.Transport.SendFrame(f)
}

// Packet is one captured unit of the wire: a control message, or a bulk
// frame when Frame is non-nil.
type Packet struct {
	Msg   core.Message
	Frame *core.PageFrame
}

// Recorder wraps a transport and keeps a copy of everything that crossed it
// in both directions, messages and frames in wire order (attach one to each
// side to get a full wire capture).
type Recorder struct {
	core.Transport

	mu     sync.Mutex
	Sent   []Packet
	Rcvd   []Packet
	Frames int // bulk frames among them
}

func (r *Recorder) record(dir *[]Packet, p Packet) {
	r.mu.Lock()
	*dir = append(*dir, p)
	if p.Frame != nil {
		r.Frames++
	}
	r.mu.Unlock()
}

// Send records and forwards.
func (r *Recorder) Send(m core.Message) error {
	r.record(&r.Sent, Packet{Msg: cloneMsg(m)})
	return r.Transport.Send(m)
}

// SendFrame records and forwards. The copy is taken first: the transport
// owns the frame from here on.
func (r *Recorder) SendFrame(f *core.PageFrame) error {
	r.record(&r.Sent, Packet{Frame: cloneFrame(f)})
	return r.Transport.SendFrame(f)
}

// Recv records and forwards.
func (r *Recorder) Recv() (core.Message, error) {
	m, err := r.Transport.Recv()
	if err == nil {
		r.record(&r.Rcvd, Packet{Msg: cloneMsg(m)})
	}
	return m, err
}

// RecvFrame records and forwards.
func (r *Recorder) RecvFrame() (*core.PageFrame, error) {
	f, err := r.Transport.RecvFrame()
	if err == nil {
		r.record(&r.Rcvd, Packet{Frame: cloneFrame(f)})
	}
	return f, err
}

// ContainsPlaintext reports whether the needle occurs in what crossed the
// wire — the passive snooper's test for P-1. Each direction is searched as
// one byte stream (message blobs and frame payloads in wire order), so a
// secret straddling two checkpoint segments is found too.
func (r *Recorder) ContainsPlaintext(needle []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, dir := range [][]Packet{r.Sent, r.Rcvd} {
		var stream []byte
		for _, p := range dir {
			stream = append(stream, p.Msg.Blob...)
			if p.Frame != nil {
				stream = append(stream, p.Frame.Data...)
			}
		}
		if bytes.Contains(stream, needle) {
			return true
		}
	}
	return false
}

func cloneMsg(m core.Message) core.Message {
	m.Blob = append([]byte(nil), m.Blob...)
	return m
}

// cloneFrame deep-copies f; the copy owns no pooled buffer, so Release on
// it is a no-op.
func cloneFrame(f *core.PageFrame) *core.PageFrame {
	return &core.PageFrame{
		Kind:  f.Kind,
		Pages: append([]int(nil), f.Pages...),
		Sizes: append([]int(nil), f.Sizes...),
		Data:  append([]byte(nil), f.Data...),
	}
}

// Replayer replays a previously captured stream to a new victim (rollback /
// replay attack): it answers every Recv and RecvFrame with the next
// captured packet, which must be of the kind asked for — the wire is one
// ordered stream.
type Replayer struct {
	mu     sync.Mutex
	script []Packet
}

// NewReplayer builds a replayer from what the original source sent.
func NewReplayer(script []Packet) *Replayer {
	return &Replayer{script: script}
}

// next pops the next scripted packet.
func (r *Replayer) next(frame bool) (Packet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.script) == 0 {
		return Packet{}, core.ErrTransportClosed
	}
	p := r.script[0]
	if (p.Frame != nil) != frame {
		return Packet{}, fmt.Errorf("attack: replay out of step: frame=%v next, frame=%v asked", p.Frame != nil, frame)
	}
	r.script = r.script[1:]
	return p, nil
}

// Send discards the victim's messages (the attacker doesn't need them).
func (r *Replayer) Send(core.Message) error { return nil }

// SendFrame discards the victim's frames.
func (r *Replayer) SendFrame(f *core.PageFrame) error {
	f.Release()
	return nil
}

// Recv feeds the next scripted message.
func (r *Replayer) Recv() (core.Message, error) {
	p, err := r.next(false)
	return p.Msg, err
}

// RecvFrame feeds the next scripted frame.
func (r *Replayer) RecvFrame() (*core.PageFrame, error) {
	p, err := r.next(true)
	return p.Frame, err
}

// Close implements core.Transport.
func (r *Replayer) Close() error { return nil }

var _ core.Transport = (*Replayer)(nil)
