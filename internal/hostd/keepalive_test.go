package hostd

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostproto"
	"repro/internal/testapps"
)

// serveLoopback serves s on a loopback listener and returns its address,
// the listener, and a channel closed when ServeLoop has returned.
func serveLoopback(t *testing.T, s *Server) (string, net.Listener, chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		_ = s.ServeLoop(ln)
		close(stopped)
	}()
	t.Cleanup(func() { ln.Close(); <-stopped })
	return ln.Addr().String(), ln, stopped
}

// statsOn makes one OpStats round trip on an open connection.
func statsOn(conn net.Conn) error {
	if err := hostproto.Write(conn, hostproto.Command{Op: hostproto.OpStats}); err != nil {
		return err
	}
	var resp hostproto.Response
	return hostproto.Read(conn, &resp)
}

// hungUp reports whether the daemon has closed conn: a read sees EOF
// before the grace runs out.
func hungUp(conn net.Conn, grace time.Duration) bool {
	_ = conn.SetReadDeadline(time.Now().Add(grace))
	_, err := conn.Read(make([]byte, 1))
	return err == io.EOF
}

// waitGoroutines waits until at most want goroutines run.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitIdle waits until n of s's inbound connections wait for a command.
func waitIdle(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.in.mu.Lock()
		idle := 0
		for _, since := range s.in.conns {
			if !since.IsZero() {
				idle++
			}
		}
		s.in.mu.Unlock()
		if idle == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections wait for a command, want %d", idle, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKeepAliveGoroutineLedger: clients that made a request and keep their
// connection open each hold one serve goroutine, and closing the listener
// closes their connections, bringing the daemon back to the goroutines it
// started with.
func TestKeepAliveGoroutineLedger(t *testing.T) {
	s := newDaemon(t, "alpha")
	baseline := runtime.NumGoroutine()
	addr, ln, stopped := serveLoopback(t, s)
	const clients = 8
	conns := make([]net.Conn, clients)
	for i := range conns {
		var err error
		if conns[i], err = net.Dial("tcp", addr); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
		if err := statsOn(conns[i]); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	waitGoroutines(t, baseline+1+clients, "idle clients: the loop and one per connection")
	ln.Close()
	for i, c := range conns {
		if !hungUp(c, time.Second) {
			t.Fatalf("client %d's idle connection outlived the listener", i)
		}
	}
	<-stopped
	waitGoroutines(t, baseline, "after the listener closed")
}

// TestKeepAliveBoundsIdleConnections: a peer that opens more connections
// than maxIdleConns and leaves them idle holds no more than the cap: each
// one over it closes the connection idle longest, and the rest still serve.
func TestKeepAliveBoundsIdleConnections(t *testing.T) {
	s := newDaemon(t, "alpha")
	baseline := runtime.NumGoroutine()
	addr, _, _ := serveLoopback(t, s)
	const over = 8
	conns := make([]net.Conn, maxIdleConns+over)
	for i := range conns {
		var err error
		if conns[i], err = net.Dial("tcp", addr); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
		// One round trip each, in order, and the daemon back to waiting on
		// it before the next opens, so the connections go idle in the
		// order they were opened.
		if err := statsOn(conns[i]); err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
		waitIdle(t, s, min(i+1, maxIdleConns))
	}
	for i, c := range conns[:over] {
		if !hungUp(c, time.Second) {
			t.Fatalf("connection %d, among the %d idle longest, is still open", i, over)
		}
	}
	waitGoroutines(t, baseline+1+maxIdleConns, "idle connections at the cap")
	for i, c := range conns[over:] {
		_ = c.SetReadDeadline(time.Time{})
		if err := statsOn(c); err != nil {
			t.Fatalf("connection %d under the cap: %v", over+i, err)
		}
	}
}

// TestMigrateOutDropsTargetThatStopsReading: a target that takes the image
// and the checkpoint's announcement and then stops reading used to block
// the source's writes until TCP gave up, the enclave quiesced all along.
// Every write of an outbound stream is on the migrateIdle clock, so the
// migration fails, the connection is not kept, and the enclave resumes.
func TestMigrateOutDropsTargetThatStopsReading(t *testing.T) {
	s := newDaemon(t, "alpha")
	launched := s.launch("counter")
	if launched.Err != "" {
		t.Fatal(launched.Err)
	}
	rt, _ := s.sessions.Lookup(launched.ID)

	src, tgt := net.Pipe()
	defer tgt.Close()
	conn := &clockedConn{Conn: src, tick: 250 * time.Millisecond}
	announced := make(chan error, 1)
	go func() {
		_, br, ts := core.NewConnStream(tgt)
		var cmd hostproto.Command
		var key hostproto.MachineKey
		err := hostproto.Read(br, &cmd)
		if err == nil {
			err = hostproto.Read(br, &key)
		}
		if err == nil {
			err = hostproto.Write(tgt, hostproto.MachineKey{Key: s.machine.AttestationPublic()})
		}
		if err == nil {
			_, err = ts.Recv() // the image
		}
		if err == nil {
			_, err = ts.Recv() // the checkpoint's announcement
		}
		announced <- err
		// Reads nothing more: an in-memory pipe has no buffer, so the
		// source's next write blocks at once.
	}()
	resp, clean := s.migrateOutOn(newStream(conn), rt, hostproto.Command{Op: hostproto.OpMigrateOut, ID: launched.ID, Target: "deaf"}, nil)
	if err := <-announced; err != nil {
		t.Fatalf("the target never got the announcement: %v", err)
	}
	if resp.Err == "" || clean {
		t.Fatalf("a migration to a target that stopped reading succeeded (%q, clean %v)", resp.Report, clean)
	}
	if rt.Dead() {
		t.Fatal("the source self-destroyed for a target that never read the checkpoint")
	}
	if _, err := rt.ECall(0, testapps.CounterGet); err != nil {
		t.Fatalf("enclave after the cancelled migration: %v", err)
	}
	writes := conn.writeSet()
	if len(writes) < 4 {
		t.Fatalf("write deadlines %v: the command, the key, the image and the checkpoint should each be timed", writes)
	}
	onClock(t, "write deadlines", writes, migrateIdle)
}

// TestMigrateInDropsSourceThatStopsReading: a source that sends the image
// and then stops reading blocks the target's hello, which leaves as soon as
// the enclave is built: a net.Pipe has no buffer to take it, and the
// source's checkpoint then blocks behind it. Every write of an inbound
// stream is on the migrateIdle clock, so the migration fails, the goroutine
// returns, and the enclave the target built on the image gives its EPC back.
func TestMigrateInDropsSourceThatStopsReading(t *testing.T) {
	src := newDaemon(t, "alpha")
	s := newDaemon(t, "beta")
	s.EnableTelemetry(1)
	// A resident enclave first: the target holds one session throughout.
	if resp := s.launch("counter"); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	launched := src.launch("counter")
	if launched.Err != "" {
		t.Fatal(launched.Err)
	}
	rt, _ := src.sessions.Lookup(launched.ID)

	srcEnd, tgtEnd := net.Pipe()
	conn := &clockedConn{Conn: tgtEnd, tick: 250 * time.Millisecond}
	served := make(chan struct{})
	go func() {
		s.serve(conn)
		close(served)
	}()
	// The source reads the target's machine key and nothing after it.
	deaf := &deafConn{Conn: srcEnd, served: served}
	migrated := make(chan hostproto.Response, 1)
	go func() {
		resp, _ := src.migrateOutOn(newStream(deaf), rt, hostproto.Command{Op: hostproto.OpMigrateOut, ID: launched.ID, Target: "beta"}, nil)
		migrated <- resp
	}()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the target is still blocked writing to a source that stopped reading")
	}
	if built := s.Tracer().ByName("core.target.build"); len(built) != 1 {
		t.Fatalf("%d build spans: the blocked write was meant to follow the build", len(built))
	}
	if st := s.Stats(); st.InflightIn != 0 || len(st.Live) != 1 {
		t.Fatalf("target after the failed migration: %+v", st)
	}
	writes := conn.writeSet()
	if len(writes) < 2 {
		t.Fatalf("write deadlines %v: the key and the hello should each be timed", writes)
	}
	onClock(t, "write deadlines", writes, migrateIdle)
	if resp := <-migrated; resp.Err == "" {
		t.Fatal("the source's migration succeeded with a target that gave up")
	}
	if _, err := rt.ECall(0, testapps.CounterGet); err != nil {
		t.Fatalf("source enclave after the failed migration: %v", err)
	}
}

// deafConn passes its first Read through and blocks every later one until
// served is closed, standing in for a peer that stops reading.
type deafConn struct {
	net.Conn
	served chan struct{}
	reads  int
}

func (c *deafConn) Read(p []byte) (int, error) {
	if c.reads++; c.reads > 1 {
		<-c.served
	}
	return c.Conn.Read(p)
}

// TestInboundDropsCommandOnClosedConnection: a command that arrives on a
// connection the daemon closed while it waited — evicted over the cap, or
// at shutdown — is never executed, and a shut-down daemon takes no more.
func TestInboundDropsCommandOnClosedConnection(t *testing.T) {
	var in inbound
	a, b := net.Pipe()
	defer b.Close()
	if !in.idle(a) {
		t.Fatal("a fresh tracker refused a connection")
	}
	in.close()
	if in.busy(a) {
		t.Fatal("a connection closed at shutdown may still run its command")
	}
	if in.idle(a) {
		t.Fatal("a shut-down tracker took a connection")
	}
	if _, err := b.Write([]byte{0}); err == nil {
		t.Fatal("the closed connection still accepts bytes")
	}
}
