package hostd

import (
	"bufio"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hostproto"
)

// migrateIdle is how long a migration stream may stay silent between two
// messages, in either direction, and how long one message may take to be
// written. The longest legitimate silence on an inbound stream is the
// source quiescing its enclave (core's 10 s default poll budget) and then
// dumping it, after it has announced the image; the target builds its
// enclave on that announcement, so a peer that goes quiet there holds EPC
// as well as a goroutine and a socket. On an outbound stream it is the
// target building and restoring; a target that goes quiet, or stops
// reading, holds the source's enclave quiesced.
const migrateIdle = 30 * time.Second

// maxIdleConns bounds the inbound connections one daemon keeps waiting for
// a command. One more closes the connection that has waited longest, so a
// peer that opens connections and idles holds at most this many sockets
// and goroutines.
const maxIdleConns = 64

// idleTransport is a migration's transport with the per-message idle
// clocks: the connection's read deadline is re-armed before every receive
// and its write deadline before every send, so each message or frame has
// migrateIdle to arrive, or to leave, in full, however long the work
// between two of them takes.
type idleTransport struct {
	core.Transport
	conn net.Conn
}

func (t idleTransport) armRead()  { _ = t.conn.SetReadDeadline(time.Now().Add(migrateIdle)) }
func (t idleTransport) armWrite() { _ = t.conn.SetWriteDeadline(time.Now().Add(migrateIdle)) }

func (t idleTransport) Send(m core.Message) error {
	t.armWrite()
	return t.Transport.Send(m)
}

func (t idleTransport) SendFrame(f *core.PageFrame) error {
	t.armWrite()
	return t.Transport.SendFrame(f)
}

func (t idleTransport) Recv() (core.Message, error) {
	t.armRead()
	return t.Transport.Recv()
}

func (t idleTransport) RecvFrame() (*core.PageFrame, error) {
	t.armRead()
	return t.Transport.RecvFrame()
}

// stream is one daemon connection, accepted or dialled, for as long as it
// stays open: the writer and buffered reader core.NewConnStream returned for
// it — every byte either way goes through them, the hostproto messages and
// the migration frames alike — and the migration transport over them on
// the idle clocks. keyed records that the machine keys were traded on it:
// the first migration on a connection carries them, later ones do not.
type stream struct {
	idleTransport
	w     io.Writer
	br    *bufio.Reader
	keyed bool
}

func newStream(conn net.Conn) *stream {
	w, br, ts := core.NewConnStream(conn)
	return &stream{idleTransport: idleTransport{ts, conn}, w: w, br: br}
}

// write sends one hostproto message on the write clock.
func (st *stream) write(v any) error {
	st.armWrite()
	return hostproto.Write(st.w, v)
}

// read receives one hostproto message on the read clock.
func (st *stream) read(v any) error {
	st.armRead()
	return hostproto.Read(st.br, v)
}

// peer takes an idle connection to addr from the server's pool, or dials
// one when there is none.
func (s *Server) peer(addr string) (*stream, error) {
	if _, st, ok := s.peers.Get(addr); ok {
		s.met.Counter("host.peer.reused").Inc()
		return st, nil
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.met.Counter("host.peer.dials").Inc()
	return newStream(conn), nil
}

// inbound tracks a daemon's accepted connections: which wait for a command
// and since when, and which are running one.
type inbound struct {
	mu     sync.Mutex
	conns  map[net.Conn]time.Time // guarded by mu; idle since, zero while a command runs
	closed bool                   // guarded by mu
}

// idle puts conn on the IdleTimeout clock for its next command. If that
// makes more than maxIdleConns wait, the one that has waited longest is
// closed. It reports false once the server has shut down.
func (in *inbound) idle(conn net.Conn) bool {
	now := time.Now()
	var evict net.Conn
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	if in.conns == nil {
		in.conns = make(map[net.Conn]time.Time)
	}
	_ = conn.SetReadDeadline(now.Add(hostproto.IdleTimeout))
	in.conns[conn] = now
	n := 0
	for c, since := range in.conns {
		if since.IsZero() {
			continue
		}
		n++
		if evict == nil || since.Before(in.conns[evict]) {
			evict = c
		}
	}
	if n > maxIdleConns {
		delete(in.conns, evict)
	} else {
		evict = nil
	}
	in.mu.Unlock()
	if evict != nil {
		_ = evict.Close()
	}
	return true
}

// busy marks conn as running the command it just read. It reports false
// when the server closed conn while it waited: the command is dropped
// unexecuted, as if it had never arrived.
func (in *inbound) busy(conn net.Conn) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.conns[conn]; !ok {
		return false
	}
	in.conns[conn] = time.Time{}
	return true
}

// done forgets a connection its goroutine has closed.
func (in *inbound) done(conn net.Conn) {
	in.mu.Lock()
	delete(in.conns, conn)
	in.mu.Unlock()
}

// close shuts the server's inbound side: the connections waiting for a
// command are closed now, the busy ones when their command ends.
func (in *inbound) close() {
	in.mu.Lock()
	in.closed = true
	var idle []net.Conn
	for c, since := range in.conns {
		if !since.IsZero() {
			idle = append(idle, c)
			delete(in.conns, c)
		}
	}
	in.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
}
