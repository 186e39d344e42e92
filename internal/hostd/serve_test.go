package hostd

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/hostproto"
	"repro/internal/ledger"
	"repro/internal/testapps"
)

// newDaemon is New for a test, with a 256-frame EPC: when t ends, every
// ledger count must have come back and the daemon must hold no enclave
// without a session and no stray EPC frame (ledger.Check).
func newDaemon(t *testing.T, name string) *Server {
	t.Helper()
	s, err := New(name, "test-secret", 256)
	if err != nil {
		t.Fatal(err)
	}
	ledger.Check(t,
		ledger.Holding{Kind: "enclaves without a session on " + name, Excess: func() int {
			n, _ := s.Unowned()
			return n
		}},
		ledger.Holding{Kind: "stray EPC frames on " + name, Excess: func() int {
			_, n := s.Unowned()
			return n
		}})
	return s
}

// TestLaunchProvisionFailure: a launch whose owner cannot attest the new
// instance — its attestation service knows no machine — fails, and the
// instance is destroyed rather than left running without a session.
func TestLaunchProvisionFailure(t *testing.T) {
	s := newDaemon(t, "alpha")
	ids := hostproto.DeriveIdentities("test-secret")
	s.owner = core.NewOwnerFromSeeds(attest.NewServiceFromSeed(ids.ServiceSeed), ids.SignerSeed, ids.EnclaveSeed, ids.Kencrypt)
	if resp := s.launch("counter"); resp.Err == "" {
		t.Fatalf("launch provisioned by an owner that cannot attest this machine: %+v", resp)
	}
	if n := s.sessions.Len(); n != 0 {
		t.Fatalf("%d sessions after the failed launch", n)
	}
}

// clockedConn stands in for a daemon's socket. It records the read and
// write deadlines set on it and shrinks each real one to tick from now, so a
// test sees a 10 s or 30 s clock fire without waiting for it.
type clockedConn struct {
	net.Conn
	tick   time.Duration
	mu     sync.Mutex
	reads  []time.Duration // as set, relative to the moment of the call; 0 = cleared
	writes []time.Duration
}

func (c *clockedConn) clock(t time.Time, set *[]time.Duration, apply func(time.Time) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.IsZero() {
		*set = append(*set, 0)
		return apply(t)
	}
	*set = append(*set, time.Until(t))
	return apply(time.Now().Add(c.tick))
}

func (c *clockedConn) SetReadDeadline(t time.Time) error {
	return c.clock(t, &c.reads, c.Conn.SetReadDeadline)
}

func (c *clockedConn) SetWriteDeadline(t time.Time) error {
	return c.clock(t, &c.writes, c.Conn.SetWriteDeadline)
}

// set returns the read deadlines set so far.
func (c *clockedConn) set() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.reads...)
}

// writeSet returns the write deadlines set so far.
func (c *clockedConn) writeSet() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.writes...)
}

// onClock fails unless every deadline in set is within a second under want.
func onClock(t *testing.T, what string, set []time.Duration, want time.Duration) {
	t.Helper()
	for _, d := range set {
		if d < want-time.Second || d > want {
			t.Fatalf("%s %v, want %v on every one", what, set, want)
		}
	}
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
	s := newDaemon(t, "alpha")
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
		if len(set) != 1 || set[0] < hostproto.IdleTimeout-time.Second || set[0] > hostproto.IdleTimeout {
			t.Fatalf("peer that sent %s: read deadlines %v, want one of %v", name, set, hostproto.IdleTimeout)
		}
		peer.Close()
	}
}

// TestServeClearsDeadlineAfterCommand: a connection carries one command
// after another. Each wait for the next command is on the IdleTimeout
// clock, re-armed after every answer, and each answer is written on a fresh
// IdleTimeout clock of its own, never on what was left of an earlier one. A
// connection left idle past the clock is closed and its goroutine returns.
// (A migrate-in keeps a clock per message instead:
// TestMigrateInDropsPeerSilentAfterImage.)
func TestServeClearsDeadlineAfterCommand(t *testing.T) {
	s := newDaemon(t, "alpha")
	peer, conn, served := servePipe(s, 200*time.Millisecond)
	defer peer.Close()
	const commands = 3
	for i := 0; i < commands; i++ {
		if err := hostproto.Write(peer, hostproto.Command{Op: hostproto.OpStats}); err != nil {
			t.Fatal(err)
		}
		var resp hostproto.Response
		if err := hostproto.Read(peer, &resp); err != nil || resp.Stats.Name != "alpha" {
			t.Fatalf("stats #%d over the pipe: %+v, %v", i+1, resp.Stats, err)
		}
	}
	// Idle past the (shrunken) clock: the daemon hangs up.
	if n, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection read %d bytes, %v; want it closed", n, err)
	}
	<-served
	reads := conn.set()
	if len(reads) != commands+1 {
		t.Fatalf("read deadlines %v, want one per wait for a command (%d)", reads, commands+1)
	}
	onClock(t, "read deadlines", reads, hostproto.IdleTimeout)
	writes := conn.writeSet()
	if len(writes) != commands {
		t.Fatalf("write deadlines %v, want one armed before each of the %d answers", writes, commands)
	}
	onClock(t, "write deadlines", writes, hostproto.IdleTimeout)
}

// TestServeDropsPeerThatStopsReading: a peer that sends a command and never
// reads the answer used to hold its serve goroutine until TCP gave up, the
// write clock lifted. The answer is on the IdleTimeout write clock, so the
// write fails when it runs out, the connection is closed and the goroutine
// returns.
func TestServeDropsPeerThatStopsReading(t *testing.T) {
	s := newDaemon(t, "alpha")
	peer, conn, served := servePipe(s, 250*time.Millisecond)
	defer peer.Close()
	if err := hostproto.Write(peer, hostproto.Command{Op: hostproto.OpEvents}); err != nil {
		t.Fatal(err)
	}
	// Reads nothing: an in-memory pipe has no buffer, so the answer's
	// write blocks at once.
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("a peer that stopped reading still holds its goroutine")
	}
	writes := conn.writeSet()
	if len(writes) != 1 {
		t.Fatalf("write deadlines %v, want the answer's", writes)
	}
	onClock(t, "write deadlines", writes, hostproto.IdleTimeout)
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
	s := newDaemon(t, "alpha")
	s.EnableTelemetry(1)
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
	// First message, key exchange, image, checkpoint: each on a clock,
	// none of them lifted; the failed migration ends the connection, so
	// there is no wait for a next command.
	set := conn.set()
	if len(set) != 4 || set[0] > hostproto.IdleTimeout {
		t.Fatalf("read deadlines %v, want the first-message one and three idle ones", set)
	}
	onClock(t, "read deadlines", set[1:], migrateIdle)
	// The key, the abort and the trace trailer went out on the write clock.
	if writes := conn.writeSet(); len(writes) == 0 {
		t.Fatal("no write deadline: the daemon's writes are not timed")
	} else {
		onClock(t, "write deadlines", writes, migrateIdle)
	}
}

// TestMigrateOutDropsSilentTarget: a target that takes the image and the
// checkpoint and then never answers used to hold the source's enclave
// quiesced until TCP gave up. The outbound stream is on the migrateIdle
// clock too, so the silence fails the migration, the source cancels, and
// the enclave resumes — still listed, still serving calls.
func TestMigrateOutDropsSilentTarget(t *testing.T) {
	s := newDaemon(t, "alpha")
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
	resp, clean := s.migrateOutOn(newStream(conn), rt, hostproto.Command{Op: hostproto.OpMigrateOut, ID: launched.ID, Target: "silent"}, nil)
	if err := <-checkpointed; err != nil {
		t.Fatalf("the target never got the checkpoint: %v", err)
	}
	if resp.Err == "" || clean {
		t.Fatalf("a migration to a silent target succeeded (%q, clean %v)", resp.Report, clean)
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
