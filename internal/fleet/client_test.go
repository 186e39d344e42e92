package fleet_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/hostd"
	"repro/internal/hostproto"
	"repro/internal/testhost"
)

// acceptCounter counts the connections a daemon accepts.
type acceptCounter struct {
	net.Listener
	n atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestRequestKeepsConnectionOpen: a client's requests to one daemon, one
// after another, share one connection.
func TestRequestKeepsConnectionOpen(t *testing.T) {
	s, err := hostd.New("alpha", "test-secret", 256)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	acc := &acceptCounter{Listener: ln}
	go s.ServeLoop(acc)
	defer ln.Close()
	for i := 0; i < 5; i++ {
		resp, err := fleet.Request(ln.Addr().String(), hostproto.Command{Op: hostproto.OpStats}, 10*time.Second)
		if err != nil || resp.Stats.Name != "alpha" {
			t.Fatalf("request %d: %+v, %v", i+1, resp.Stats, err)
		}
	}
	if n := acc.n.Load(); n != 1 {
		t.Fatalf("five requests made %d connections, want 1", n)
	}
}

// TestRequestRedialsAfterDaemonRestart: the connection a client kept to a
// daemon that has since restarted is found closed before the next request
// is written to it, and that request dials afresh and succeeds.
func TestRequestRedialsAfterDaemonRestart(t *testing.T) {
	h, err := testhost.Start("alpha", 1, testhost.Options{})
	if err != nil {
		t.Fatal(err)
	}
	testhost.Check(t, h)
	t.Cleanup(h.Close)
	ids := launchOn(t, h.Addr, 1)
	if err := h.Restart(); err != nil {
		t.Fatal(err)
	}
	resp, err := fleet.Request(h.Addr, hostproto.Command{Op: hostproto.OpStats}, 10*time.Second)
	if err != nil {
		t.Fatalf("first request after the restart: %v", err)
	}
	if len(resp.Stats.Live) != 0 {
		t.Fatalf("the restarted daemon lists %v; %v ran on the old one", resp.Stats.Live, ids)
	}
}
