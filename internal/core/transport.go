package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MsgKind labels migration protocol messages.
type MsgKind int

// Protocol message kinds, in rough protocol order.
const (
	MsgImage      MsgKind = iota + 1 // S→T: app name + measurement + thread count
	MsgHello                         // T→S: quote || dhpub || nonce
	MsgChannel                       // S→T: srcpub || sig
	MsgChannelOK                     // T→S: channel established
	MsgCheckpoint                    // S→T: checkpoint blob (header || ciphertext)
	MsgKey                           // S→T: sealed Kmigrate (after source self-destroy)
	MsgDone                          // T→S: restore verified, enclave live
	MsgAbort                         // either direction: migration cancelled
)

// Message is one migration protocol message. Structured payloads use the
// fixed wire codecs from the enclave package inside Blob.
//
// Frames, when nonzero, announces that the message's bulk payload follows
// as that many FrameBlob frames instead of riding inline in Blob
// (sendBulk/recvWindow). On the wire a Message is one FrameCtl frame, so
// Blob is bounded by maxCtlBlob and arrives nil when empty.
type Message struct {
	Kind   MsgKind
	Blob   []byte
	Frames uint32
}

// ctlFrame returns m as the FrameCtl frame that carries it (Data aliases
// Blob), refusing a blob no receiver would accept.
func ctlFrame(m Message) (PageFrame, error) {
	if len(m.Blob) > maxCtlBlob {
		return PageFrame{}, fmt.Errorf("core: send: message %d blob of %d bytes exceeds cap %d", m.Kind, len(m.Blob), maxCtlBlob)
	}
	return PageFrame{Kind: FrameCtl, Msg: m.Kind, Frames: m.Frames, Data: m.Blob}, nil
}

// message returns the Message a FrameCtl frame carries, with a Blob of its
// own: the frame's buffer goes back to the pool.
func (f *PageFrame) message() Message {
	m := Message{Kind: f.Msg, Frames: f.Frames}
	if len(f.Data) > 0 {
		m.Blob = append([]byte(nil), f.Data...)
	}
	return m
}

// Transport carries the migration protocol between the source and target
// migration managers: control messages and bulk frames, all in the one
// frame format of wirecodec.go, on one ordered stream. In-process pipes
// (NewPipe, NewShapedPipe) and TCP (NewConnTransport/NewConnStream) are one
// implementation, stream; it is an interface so that fault injectors and
// recorders can wrap a transport.
//
// The two directions are independent: the target sends its hello while
// the source is still streaming the checkpoint and reads nothing, so each
// direction must accept one control message that nobody reads yet. A TCP
// socket's buffer and the pipe's 16-frame channels both do.
//
// SendFrame takes ownership of the frame: the implementation releases its
// pooled buffer and the caller must not touch the frame (or anything
// aliasing its Data) afterwards. RecvFrame returns a frame the caller
// must Release.
type Transport interface {
	Send(Message) error
	Recv() (Message, error)
	SendFrame(*PageFrame) error
	RecvFrame() (*PageFrame, error)
	Close() error
}

// The old name of Transport, from when only some transports carried
// frames; kept because the frozen benchmark/probes.go spells it.
type FrameTransport = Transport

// ErrTransportClosed is returned after Close.
var ErrTransportClosed = errors.New("core: transport closed")

// The stream is ordered and each side knows which class of frame comes
// next; the other class means the peers disagree about the protocol state.
var (
	errWantMessage = errors.New("core: recv: bulk frame arrived where a message was expected")
	errWantFrame   = errors.New("core: recv: message arrived where a bulk frame was expected")
)

// stream is the one Transport implementation: control messages become
// FrameCtl frames and both classes travel as encoded frames over a link, so
// the in-process pipe and TCP share the message codec, the maxCtlBlob
// bound and the frame-class refusal. Close and BytesSent (ByteCounter) are
// the link's.
type stream struct{ link }

// link carries encoded frames, in order, between two peers.
type link interface {
	// writeFrame sends f; the caller keeps ownership of f.
	writeFrame(f *PageFrame) error
	// readFrame returns the next frame, which must be a control frame (ctl)
	// or a bulk one (!ctl); the other class is refused from its header,
	// before its body is sized.
	readFrame(ctl bool) (*PageFrame, error)
	// Close tears down both directions, like closing a socket.
	Close() error
	// BytesSent reports the wire bytes this half has sent.
	BytesSent() int64
}

// Send implements Transport.
func (s *stream) Send(m Message) error {
	f, err := ctlFrame(m)
	if err != nil {
		return err
	}
	return s.writeFrame(&f)
}

// SendFrame implements Transport.
func (s *stream) SendFrame(f *PageFrame) error {
	err := s.writeFrame(f)
	f.Release()
	return err
}

// Recv implements Transport.
func (s *stream) Recv() (Message, error) {
	f, err := s.readFrame(true)
	if err != nil {
		return Message{}, err
	}
	m := f.message()
	f.Release()
	return m, nil
}

// RecvFrame implements Transport.
func (s *stream) RecvFrame() (*PageFrame, error) { return s.readFrame(false) }

// ByteCounter is implemented by transports that track transferred bytes.
type ByteCounter interface {
	BytesSent() int64
}

// wrongClass refuses a frame of the class the reader does not expect.
func wrongClass(kind FrameKind, ctl bool) error {
	switch {
	case ctl && kind != FrameCtl:
		return errWantMessage
	case !ctl && kind == FrameCtl:
		return errWantFrame
	}
	return nil
}

// pipe is an in-process link half. An encoded frame crosses the channel as
// its pooled buffer and the receiver decodes it in place, so nothing is
// copied on the way.
type pipe struct {
	out chan []byte
	in  chan []byte

	closeOnce *sync.Once
	closed    chan struct{}

	delay     time.Duration // simulated one-way latency
	byteNanos float64       // simulated nanoseconds per byte (bandwidth)
	sent      *atomic.Int64

	clockMu   sync.Mutex
	busyUntil time.Time // guarded by clockMu; link clock: when the bytes accepted so far have crossed
}

// linkCredit is how late a sender may arrive and still be treated as on
// time: the link clock never falls further than this behind real time, the
// way a NIC keeps draining a short transmit queue while the sender
// prepares the next frame. It is also the most the shaped pipe can beat
// bytes/bps by over any window, idle gaps included. A constant, not an
// option: it stands for simulation overhead (one frame's encode time plus
// timer overshoot — about one 256 KiB chunk at 250 MB/s), not for a
// property of the link being modelled.
const linkCredit = time.Millisecond

// NewPipe creates a connected pair of in-process transports.
func NewPipe() (Transport, Transport) {
	return NewShapedPipe(0, 0)
}

// NewShapedPipe creates an in-process transport pair with a simulated
// one-way latency and bandwidth (bytes/second; 0 = infinite). It lets the
// Fig. 10 experiments reproduce network-bound shapes on any host. Both
// halves implement ByteCounter.
func NewShapedPipe(latency time.Duration, bytesPerSecond float64) (Transport, Transport) {
	ab := make(chan []byte, 16)
	ba := make(chan []byte, 16)
	var sentA, sentB atomic.Int64
	var byteNanos float64
	if bytesPerSecond > 0 {
		byteNanos = 1e9 / bytesPerSecond
	}
	// One shared closed channel: closing either end tears down the
	// connection for both, like a real socket.
	closed := make(chan struct{})
	var once sync.Once
	a := &pipe{out: ab, in: ba, closeOnce: &once, closed: closed, delay: latency, byteNanos: byteNanos, sent: &sentA}
	b := &pipe{out: ba, in: ab, closeOnce: &once, closed: closed, delay: latency, byteNanos: byteNanos, sent: &sentB}
	return &stream{a}, &stream{b}
}

// reserve books n bytes on the link clock at time now and returns how long
// from now until they have crossed. An idle link (or a sender running
// late) starts the transfer at most linkCredit in the past.
func (p *pipe) reserve(now time.Time, n int) time.Duration {
	p.clockMu.Lock()
	defer p.clockMu.Unlock()
	if floor := now.Add(-linkCredit); p.busyUntil.Before(floor) {
		p.busyUntil = floor
	}
	p.busyUntil = p.busyUntil.Add(time.Duration(p.byteNanos * float64(n)))
	return p.busyUntil.Sub(now)
}

// shape simulates the transfer of n bytes: it returns once the link clock
// says they have crossed (plus the one-way latency). Pacing against the
// clock rather than sleeping n bytes' worth per call lets a sender's own
// per-frame work and the timer's overshoot overlap the previous frame's
// transfer, so a busy link delivers its nominal rate. It returns
// ErrTransportClosed as soon as either end closes — an abort must not
// stall behind the simulated transfer of data nobody will receive.
func (p *pipe) shape(n int) error {
	wait := p.delay
	if p.byteNanos > 0 {
		wait += p.reserve(time.Now(), n)
	}
	if wait <= 0 {
		select {
		case <-p.closed:
			return ErrTransportClosed
		default:
			return nil
		}
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-p.closed:
		return ErrTransportClosed
	}
}

// writeFrame encodes f with the binary codec, so shaping and byte
// accounting see exact wire sizes, and hands the buffer over. Bytes count
// only for frames actually enqueued.
func (p *pipe) writeFrame(f *PageFrame) error {
	buf := GetBuf(encodedFrameSize(f))[:0]
	buf = AppendFrame(buf, f)
	if err := p.shape(len(buf)); err != nil {
		PutBuf(buf)
		return err
	}
	select {
	case p.out <- buf:
		p.sent.Add(int64(len(buf)))
		select {
		case <-p.closed:
			// The send raced Close, which may have drained the queue
			// already: no one reads it any more.
			drainQueue(p.out)
		default:
		}
		return nil
	case <-p.closed:
		PutBuf(buf)
		return ErrTransportClosed
	}
}

// readFrame decodes the next buffer in place; the frame owns it.
func (p *pipe) readFrame(ctl bool) (*PageFrame, error) {
	select {
	case buf := <-p.in:
		if err := wrongClass(FrameKind(buf[4]), ctl); err != nil {
			PutBuf(buf)
			return nil, err
		}
		f, _, err := DecodeFrame(buf)
		if err != nil {
			PutBuf(buf)
			return nil, err
		}
		f.buf = buf
		return f, nil
	case <-p.closed:
		return nil, ErrTransportClosed
	}
}

func (p *pipe) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	drainQueue(p.out)
	drainQueue(p.in)
	return nil
}

// drainQueue hands every buffer still queued in q back to the pool.
func drainQueue(q chan []byte) {
	for {
		select {
		case buf := <-q:
			PutBuf(buf)
		default:
			return
		}
	}
}

func (p *pipe) BytesSent() int64 { return p.sent.Load() }

// countingWriter counts the bytes actually written to the connection, so
// BytesSent reports what reached the wire and failed sends inflate nothing.
type countingWriter struct {
	w io.Writer
	n atomic.Int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

// conn is a link over a net.Conn: every frame is written with one Write
// (used by the sgxhost/sgxmigrate tools).
type conn struct {
	nc  net.Conn
	cw  *countingWriter
	br  *bufio.Reader
	wmu sync.Mutex // serializes frame writes
}

// NewConnStream wraps a network connection as a Transport and returns the
// stream's counting writer and buffered reader with it. Callers with their
// own traffic around the migration (the sgxhost hostproto.Command +
// MachineKey exchange, the trailing TraceShipment) must use this pair: the
// reader buffers ahead, so a second reader on the same conn would lose
// bytes, and BytesSent counts what goes through the writer. Their messages
// are length-prefixed like the frames, so the two interleave on the one
// stream as long as each side knows which comes next.
func NewConnStream(nc net.Conn) (io.Writer, *bufio.Reader, Transport) {
	c := &conn{
		nc: nc,
		cw: &countingWriter{w: nc},
		br: bufio.NewReaderSize(nc, 64<<10),
	}
	return c.cw, c.br, &stream{c}
}

// NewConnTransport wraps a network connection as a Transport.
func NewConnTransport(nc net.Conn) Transport {
	_, _, t := NewConnStream(nc)
	return t
}

func (c *conn) writeFrame(f *PageFrame) error {
	c.wmu.Lock()
	err := WriteFrame(c.cw, f)
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("core: send %s frame: %w", f.Kind, err)
	}
	return nil
}

func (c *conn) readFrame(ctl bool) (*PageFrame, error) {
	kind, bodyLen, err := readFrameHeader(c.br)
	if err != nil {
		return nil, closedOnEOF(err)
	}
	if err := wrongClass(kind, ctl); err != nil {
		return nil, err
	}
	f, err := readFrameBody(c.br, kind, bodyLen)
	return f, closedOnEOF(err)
}

// closedOnEOF reports a stream that ended, cleanly or inside a frame, as
// ErrTransportClosed.
func closedOnEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrTransportClosed
	}
	return err
}

func (c *conn) Close() error { return c.nc.Close() }

func (c *conn) BytesSent() int64 { return c.cw.n.Load() }
