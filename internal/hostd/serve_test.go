package hostd

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostproto"
	"repro/internal/testapps"
)

// clockedConn stands in for the daemon's accepted socket. It records the
// read deadlines serve sets and shrinks each real one to tick from now, so
// a test sees the 10 s first-message timeout fire without waiting for it.
type clockedConn struct {
	net.Conn
	tick      time.Duration
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
	return c.Conn.SetReadDeadline(time.Now().Add(c.tick))
}

func (c *clockedConn) set() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.deadlines...)
}

// servePipe runs s.serve on one end of an in-memory connection whose read
// deadlines all fire after tick, and returns the peer's end, the daemon's,
// and a channel closed when serve returns.
func servePipe(s *Server, tick time.Duration) (peer net.Conn, conn *clockedConn, served chan struct{}) {
	peer, accepted := net.Pipe()
	conn = &clockedConn{Conn: accepted, tick: tick}
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
		peer, conn, served := servePipe(s, 20*time.Millisecond)
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

// TestServeClearsDeadlineAfterCommand: a plain command is the only thing
// read from its connection, and the answer may take as long as it takes, so
// the deadline is lifted as soon as the command is in. (A migrate-in stream
// keeps a clock per message instead: TestMigrateInDropsPeerSilentAfterImage.)
func TestServeClearsDeadlineAfterCommand(t *testing.T) {
	s, err := New("alpha", "test-secret", 256)
	if err != nil {
		t.Fatal(err)
	}
	peer, conn, served := servePipe(s, 20*time.Millisecond)
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

// TestMigrateInDropsPeerSilentAfterImage: a peer opens a migration, trades
// machine keys, announces a valid image — on which the target builds its
// virgin enclave — and then sends nothing. Every message of an inbound
// stream is on the migrateIdle clock, so the silence ends the migration:
// the goroutine returns, InflightIn is back to 0 and the enclave's EPC is
// back in the pool. (The parent held no EPC at this point, it only built
// once the checkpoint was in; what it did hold, for good, was the goroutine
// and the socket, because only the first message of a connection was timed.)
func TestMigrateInDropsPeerSilentAfterImage(t *testing.T) {
	s, err := New("alpha", "test-secret", 256)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(1)
	// A resident enclave first, so the pool's one-time VA page is in place
	// when the baseline is taken.
	if resp := s.launch("counter"); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	baseline := s.host.Mgr.FreeFrames()
	dep, _ := s.registry.Lookup("counter")

	// The honest part of the exchange has to fit the shrunken clock.
	peer, conn, served := servePipe(s, 250*time.Millisecond)
	defer peer.Close()
	_, br, ts := core.NewConnStream(peer)
	if err := hostproto.Write(peer, hostproto.Command{Op: hostproto.OpMigrateIn, ID: "counter-9"}); err != nil {
		t.Fatal(err)
	}
	if err := hostproto.Write(peer, hostproto.MachineKey{Key: s.machine.AttestationPublic()}); err != nil {
		t.Fatal(err)
	}
	var key hostproto.MachineKey
	if err := hostproto.Read(br, &key); err != nil {
		t.Fatal(err)
	}
	image := binary.LittleEndian.AppendUint32(nil, uint32(len(dep.App.Name)))
	image = append(image, dep.App.Name...)
	image = append(image, dep.Sig.Measurement[:]...)
	image = binary.LittleEndian.AppendUint32(image, uint32(dep.App.Layout().Threads))
	if err := ts.Send(core.Message{Kind: core.MsgImage, Blob: image}); err != nil {
		t.Fatal(err)
	}
	// Silence. The daemon's abort and trace trailer are drained unread (an
	// in-memory pipe has no socket buffer to absorb them).
	go io.Copy(io.Discard, br)

	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the silent peer still holds its goroutine")
	}
	if built := s.Tracer().ByName("core.target.build"); len(built) != 1 {
		t.Fatalf("%d build spans: the silence was meant to follow the build", len(built))
	}
	if st := s.Stats(); st.InflightIn != 0 {
		t.Fatalf("InflightIn = %d after the stream ended", st.InflightIn)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.host.Mgr.FreeFrames() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d free frames, %d before the peer connected", s.host.Mgr.FreeFrames(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// First message, key exchange, image, checkpoint: each on a clock,
	// none of them lifted.
	set := conn.set()
	if len(set) != 4 || set[0] > firstMessageTimeout {
		t.Fatalf("read deadlines %v, want the first-message one and three idle ones", set)
	}
	for _, d := range set[1:] {
		if d < migrateIdle-time.Second || d > migrateIdle {
			t.Fatalf("read deadlines %v, want %v re-armed before every message", set, migrateIdle)
		}
	}
}

// TestMigrateOutDropsSilentTarget: a target that takes the image and the
// checkpoint and then never answers used to hold the source's enclave
// quiesced until TCP gave up. The outbound stream is on the migrateIdle
// clock too, so the silence fails the migration, the source cancels, and
// the enclave resumes — still listed, still serving calls.
func TestMigrateOutDropsSilentTarget(t *testing.T) {
	s, err := New("alpha", "test-secret", 256)
	if err != nil {
		t.Fatal(err)
	}
	launched := s.launch("counter")
	if launched.Err != "" {
		t.Fatal(launched.Err)
	}
	rt, ok := s.sessions.Lookup(launched.ID)
	if !ok {
		t.Fatal("launched enclave not listed")
	}

	// The honest part of the exchange has to fit the shrunken clock.
	src, tgt := net.Pipe()
	defer tgt.Close()
	conn := &clockedConn{Conn: src, tick: 250 * time.Millisecond}
	checkpointed := make(chan error, 1)
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
		var m core.Message
		if err == nil {
			_, err = ts.Recv() // the image
		}
		if err == nil {
			m, err = ts.Recv() // the checkpoint's announcement
		}
		for i := uint32(0); err == nil && i < m.Frames; i++ {
			var f *core.PageFrame
			if f, err = ts.RecvFrame(); err == nil {
				f.Release()
			}
		}
		checkpointed <- err
		// Silence. Whatever the source still writes is drained unread (an
		// in-memory pipe has no socket buffer to absorb it).
		_, _ = io.Copy(io.Discard, br)
	}()
	resp := s.migrateOutOn(conn, rt, hostproto.Command{Op: hostproto.OpMigrateOut, ID: launched.ID, Target: "silent"}, nil)
	if err := <-checkpointed; err != nil {
		t.Fatalf("the target never got the checkpoint: %v", err)
	}
	if resp.Err == "" {
		t.Fatal("a migration to a silent target succeeded")
	}
	if rt.Dead() {
		t.Fatal("the source self-destroyed for a target that never answered")
	}
	if _, err := rt.ECall(0, testapps.CounterGet); err != nil {
		t.Fatalf("enclave after the cancelled migration: %v", err)
	}
	if _, ok := s.sessions.Lookup(launched.ID); !ok {
		t.Fatal("the source dropped the session of an enclave it still runs")
	}
	// The key exchange and every message after it on a clock, none lifted.
	set := conn.set()
	timed := 0
	for _, d := range set {
		if d == 0 {
			continue
		}
		if d < migrateIdle-time.Second || d > migrateIdle {
			t.Fatalf("read deadlines %v, want %v re-armed before every read", set, migrateIdle)
		}
		timed++
	}
	if timed < 2 {
		t.Fatalf("read deadlines %v: the key exchange and the wait for the target's hello should each be timed", set)
	}
}
