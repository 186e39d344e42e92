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
// (sendBulk/recvStaged). On the wire a Message is one FrameCtl frame, so
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
// frame format of wirecodec.go, on one ordered stream. Implementations:
// in-process pipes (NewPipe, NewShapedPipe) and TCP
// (NewConnTransport/NewConnStream).
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

// pipeItem is one unit on an in-process pipe: either a control message or
// an encoded bulk frame. A single channel keeps the two in FIFO order,
// exactly like the byte stream of a real socket.
type pipeItem struct {
	msg   Message
	frame []byte // encoded bulk frame; nil for control messages
}

// pipe is an in-process transport half.
type pipe struct {
	out chan<- pipeItem
	in  <-chan pipeItem

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
	ab := make(chan pipeItem, 16)
	ba := make(chan pipeItem, 16)
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
	return a, b
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

// Send implements Transport with transfer-time shaping. The message
// crosses the channel as a value — nothing to encode, and abort() never
// waits on a writer — but is shaped, bounded and counted as the control
// frame it would be on a socket. Bytes count only for messages actually
// enqueued.
func (p *pipe) Send(m Message) error {
	f, err := ctlFrame(m)
	if err != nil {
		return err
	}
	n := 4 + ctlHeader + len(f.Data)
	if err := p.shape(n); err != nil {
		return err
	}
	select {
	case p.out <- pipeItem{msg: m}:
		p.sent.Add(int64(n))
		return nil
	case <-p.closed:
		return ErrTransportClosed
	}
}

// SendFrame implements Transport. The frame is encoded with the real
// binary codec, so shaping and byte accounting see exact wire sizes.
func (p *pipe) SendFrame(f *PageFrame) error {
	buf := GetBuf(encodedFrameSize(f))[:0]
	buf = AppendFrame(buf, f)
	f.Release()
	if err := p.shape(len(buf)); err != nil {
		PutBuf(buf)
		return err
	}
	select {
	case p.out <- pipeItem{frame: buf}:
		p.sent.Add(int64(len(buf)))
		return nil
	case <-p.closed:
		PutBuf(buf)
		return ErrTransportClosed
	}
}

// Recv implements Transport.
func (p *pipe) Recv() (Message, error) {
	select {
	case it := <-p.in:
		if it.frame != nil {
			PutBuf(it.frame)
			return Message{}, errWantMessage
		}
		return it.msg, nil
	case <-p.closed:
		return Message{}, ErrTransportClosed
	}
}

// RecvFrame implements Transport.
func (p *pipe) RecvFrame() (*PageFrame, error) {
	select {
	case it := <-p.in:
		if it.frame == nil {
			return nil, errWantFrame
		}
		f, n, err := DecodeFrame(it.frame)
		if err != nil || n != len(it.frame) {
			PutBuf(it.frame)
			if err == nil {
				err = errors.New("core: trailing bytes after bulk frame")
			}
			return nil, err
		}
		f.buf = it.frame
		return f, nil
	case <-p.closed:
		return nil, ErrTransportClosed
	}
}

// Close implements Transport: it tears down both directions, like closing
// a socket.
func (p *pipe) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	return nil
}

// BytesSent reports how many wire bytes this half has sent.
func (p *pipe) BytesSent() int64 { return p.sent.Load() }

// ByteCounter is implemented by transports that track transferred bytes.
type ByteCounter interface {
	BytesSent() int64
}

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

// connTransport is a Transport over a net.Conn: every message and frame is
// one wirecodec frame, written with one Write (used by the sgxhost/sgxmigrate
// tools).
type connTransport struct {
	conn net.Conn
	cw   *countingWriter
	br   *bufio.Reader
	wmu  sync.Mutex // serializes frame writes
}

// NewConnStream wraps a network connection as a Transport and returns the
// stream's counting writer and buffered reader with it. Callers with their
// own traffic around the migration (the sgxhost hostproto.Command +
// MachineKey exchange, the trailing TraceShipment) must use this pair: the
// reader buffers ahead, so a second reader on the same conn would lose
// bytes, and BytesSent counts what goes through the writer. Their messages
// are length-prefixed like the frames, so the two interleave on the one
// stream as long as each side knows which comes next.
func NewConnStream(conn net.Conn) (io.Writer, *bufio.Reader, Transport) {
	t := &connTransport{
		conn: conn,
		cw:   &countingWriter{w: conn},
		br:   bufio.NewReaderSize(conn, 64<<10),
	}
	return t.cw, t.br, t
}

// NewConnTransport wraps a network connection as a Transport.
func NewConnTransport(conn net.Conn) Transport {
	_, _, t := NewConnStream(conn)
	return t
}

// Send implements Transport.
func (c *connTransport) Send(m Message) error {
	f, err := ctlFrame(m)
	if err != nil {
		return err
	}
	return c.writeFrame(&f)
}

// SendFrame implements Transport.
func (c *connTransport) SendFrame(f *PageFrame) error {
	err := c.writeFrame(f)
	f.Release()
	return err
}

func (c *connTransport) writeFrame(f *PageFrame) error {
	c.wmu.Lock()
	err := WriteFrame(c.cw, f)
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("core: send %s frame: %w", f.Kind, err)
	}
	return nil
}

// Recv implements Transport.
func (c *connTransport) Recv() (Message, error) {
	f, err := c.readFrame(true)
	if err != nil {
		return Message{}, err
	}
	m := f.message()
	f.Release()
	return m, nil
}

// RecvFrame implements Transport.
func (c *connTransport) RecvFrame() (*PageFrame, error) {
	return c.readFrame(false)
}

// readFrame reads the next frame, which must be a control frame (ctl) or a
// bulk one (!ctl); the other class is refused from its header, before its
// body is sized.
func (c *connTransport) readFrame(ctl bool) (*PageFrame, error) {
	kind, bodyLen, err := readFrameHeader(c.br)
	if err != nil {
		return nil, closedOnEOF(err)
	}
	if ctl && kind != FrameCtl {
		return nil, errWantMessage
	}
	if !ctl && kind == FrameCtl {
		return nil, errWantFrame
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

// Close implements Transport.
func (c *connTransport) Close() error { return c.conn.Close() }

// BytesSent implements ByteCounter.
func (c *connTransport) BytesSent() int64 { return c.cw.n.Load() }
