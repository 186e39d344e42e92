package hostd

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/hostproto"
)

// clockedConn stands in for the daemon's accepted socket. It records the
// read deadlines serve sets and shrinks each real one to 20 ms from now, so
// a test sees the 10 s first-message timeout fire without waiting for it.
type clockedConn struct {
	net.Conn
	mu        sync.Mutex
	deadlines []time.Duration // as set, relative to the moment of the call; 0 = cleared
}

func (c *clockedConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.IsZero() {
		c.deadlines = append(c.deadlines, 0)
		return c.Conn.SetReadDeadline(t)
	}
	c.deadlines = append(c.deadlines, time.Until(t))
	return c.Conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
}

func (c *clockedConn) set() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.deadlines...)
}

// servePipe runs s.serve on one end of an in-memory connection and returns
// the peer's end, the daemon's, and a channel closed when serve returns.
func servePipe(s *Server) (peer net.Conn, conn *clockedConn, served chan struct{}) {
	peer, accepted := net.Pipe()
	conn = &clockedConn{Conn: accepted}
	served = make(chan struct{})
	go func() {
		s.serve(conn)
		close(served)
	}()
	return peer, conn, served
}

// TestServeDropsSilentPeer: a peer that connects and sends nothing — or
// announces a message and never sends it — is on the first-message clock.
// When it runs out the connection is closed and serve, the goroutine the
// peer was holding, returns.
func TestServeDropsSilentPeer(t *testing.T) {
	s, err := New("alpha", "test-secret", 256)
	if err != nil {
		t.Fatal(err)
	}
	for name, opening := range map[string][]byte{
		"nothing":                nil,
		"a 16 MiB length prefix": binary.LittleEndian.AppendUint32(nil, hostproto.MaxMessage),
	} {
		peer, conn, served := servePipe(s)
		if len(opening) > 0 {
			if _, err := peer.Write(opening); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// The peer's own read ends when the daemon hangs up on it.
		if n, err := peer.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("peer that sent %s read %d bytes, %v; want the connection closed", name, n, err)
		}
		<-served
		set := conn.set()
		if len(set) != 1 || set[0] < firstMessageTimeout-time.Second || set[0] > firstMessageTimeout {
			t.Fatalf("peer that sent %s: read deadlines %v, want one of %v", name, set, firstMessageTimeout)
		}
		peer.Close()
	}
}

// TestServeClearsDeadlineAfterCommand: only the first message is on the
// clock — a migrate-in stream legitimately runs long — so the deadline is
// lifted as soon as the command is in.
func TestServeClearsDeadlineAfterCommand(t *testing.T) {
	s, err := New("alpha", "test-secret", 256)
	if err != nil {
		t.Fatal(err)
	}
	peer, conn, served := servePipe(s)
	defer peer.Close()
	if err := hostproto.Write(peer, hostproto.Command{Op: hostproto.OpStats}); err != nil {
		t.Fatal(err)
	}
	var resp hostproto.Response
	if err := hostproto.Read(peer, &resp); err != nil || resp.Stats.Name != "alpha" {
		t.Fatalf("stats over the pipe: %+v, %v", resp.Stats, err)
	}
	<-served
	if set := conn.set(); len(set) != 2 || set[0] <= 0 || set[1] != 0 {
		t.Fatalf("read deadlines %v, want the first-message deadline, then cleared", set)
	}
}
