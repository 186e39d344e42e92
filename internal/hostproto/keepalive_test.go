package hostproto

import (
	"io"
	"net"
	"testing"
	"time"
)

// loopbackPairs dials n connections to a loopback listener and returns
// the dialled ends with the accepted ones, in the same order.
func loopbackPairs(t *testing.T, n int) (dialled, accepted []net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		a, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(); a.Close() })
		dialled, accepted = append(dialled, c), append(accepted, a)
	}
	return dialled, accepted
}

// closedByPool reports whether the pool closed the dialled end whose
// accepted end is a: a's read sees EOF.
func closedByPool(t *testing.T, a net.Conn) bool {
	t.Helper()
	_ = a.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	_, err := a.Read(make([]byte, 1))
	return err == io.EOF
}

// TestAliveSeesClosedPeerAndStrayBytes: the liveness check before reuse
// passes an open, empty connection, and fails one whose peer has closed it
// or one that holds bytes nobody asked for.
func TestAliveSeesClosedPeerAndStrayBytes(t *testing.T) {
	dialled, accepted := loopbackPairs(t, 3)
	if !Alive(dialled[0]) {
		t.Fatal("an open, empty connection is not alive")
	}
	// Twice: the check itself must leave an open connection as it was.
	if !Alive(dialled[0]) {
		t.Fatal("the second check of an open connection failed")
	}
	accepted[1].Close()
	deadline := time.Now().Add(time.Second)
	for Alive(dialled[1]) {
		if time.Now().After(deadline) {
			t.Fatal("a connection its peer closed is still alive")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := accepted[2].Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	for Alive(dialled[2]) {
		if time.Now().After(deadline) {
			t.Fatal("a connection holding a stray byte is alive")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolReusesNewestOpenConnection: Get hands back the most recently
// returned connection to the address, skips (and closes) one whose peer
// went away, and comes up empty for an address it never saw.
func TestPoolReusesNewestOpenConnection(t *testing.T) {
	dialled, accepted := loopbackPairs(t, 3)
	var p Pool[int]
	for i, c := range dialled {
		p.Put("a", c, i)
	}
	if _, _, ok := p.Get("b"); ok {
		t.Fatal("Get found a connection to an address nothing was returned for")
	}
	if c, v, ok := p.Get("a"); !ok || c != dialled[2] || v != 2 {
		t.Fatalf("Get = %v, %d, %v; want the newest connection", c, v, ok)
	}
	accepted[1].Close()
	time.Sleep(10 * time.Millisecond)
	if c, v, ok := p.Get("a"); !ok || c != dialled[0] || v != 0 {
		t.Fatalf("Get = %v, %d, %v; want the closed one skipped", c, v, ok)
	}
	if _, _, ok := p.Get("a"); ok {
		t.Fatal("Get found a connection in an empty pool")
	}
}

// TestPoolBoundsIdlePerAddress: one more than MaxIdlePerAddr idle
// connections to an address closes the oldest.
func TestPoolBoundsIdlePerAddress(t *testing.T) {
	dialled, accepted := loopbackPairs(t, MaxIdlePerAddr+1)
	var p Pool[int]
	for i, c := range dialled {
		p.Put("a", c, i)
	}
	if !closedByPool(t, accepted[0]) {
		t.Fatal("the oldest connection is still open past the cap")
	}
	for i := MaxIdlePerAddr; i >= 1; i-- {
		if _, v, ok := p.Get("a"); !ok || v != i {
			t.Fatalf("Get = %d, %v; want connection %d", v, ok, i)
		}
	}
}

// TestPoolExpiresIdleConnections: a connection idle for KeepAlive is not
// handed out, and returning any connection sweeps the expired ones of every
// address.
func TestPoolExpiresIdleConnections(t *testing.T) {
	dialled, accepted := loopbackPairs(t, 3)
	var p Pool[int]
	p.Put("a", dialled[0], 0)
	p.Put("b", dialled[1], 1)
	p.mu.Lock()
	for _, list := range p.idle {
		list[0].since = list[0].since.Add(-KeepAlive)
	}
	p.mu.Unlock()
	if _, _, ok := p.Get("a"); ok {
		t.Fatal("Get handed out an expired connection")
	}
	if !closedByPool(t, accepted[0]) {
		t.Fatal("the expired connection Get passed over is still open")
	}
	p.Put("c", dialled[2], 2)
	if !closedByPool(t, accepted[1]) {
		t.Fatal("Put left an expired connection to another address open")
	}
	p.mu.Lock()
	n := len(p.idle)
	p.mu.Unlock()
	if n != 1 {
		t.Fatalf("the pool still lists %d addresses, want only the fresh one", n)
	}
}

// TestPoolCloseClosesEverything: Close closes the idle connections, and a
// connection returned after it is closed on the spot.
func TestPoolCloseClosesEverything(t *testing.T) {
	dialled, accepted := loopbackPairs(t, 2)
	var p Pool[int]
	p.Put("a", dialled[0], 0)
	p.Close()
	if !closedByPool(t, accepted[0]) {
		t.Fatal("Close left an idle connection open")
	}
	p.Put("a", dialled[1], 1)
	if !closedByPool(t, accepted[1]) {
		t.Fatal("a connection returned to a closed pool is still open")
	}
	if _, _, ok := p.Get("a"); ok {
		t.Fatal("a closed pool handed out a connection")
	}
}
