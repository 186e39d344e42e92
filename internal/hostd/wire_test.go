package hostd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hostd"
	"repro/internal/hostproto"
	"repro/internal/testapps"
)

// tapConn records what crosses one accepted connection: the bytes the peer
// sent, the bytes the daemon sent, and how many Writes the daemon's took.
// done is closed when the daemon closes the connection.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
	writes  int
	done    chan struct{}
}

func (c *tapConn) Close() error {
	err := c.Conn.Close()
	close(c.done) // serve closes its connection exactly once
	return err
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// tapListener taps every connection a daemon accepts.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, done: make(chan struct{})}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// last returns the most recently accepted connection's traffic, once the
// daemon is done with it.
func (l *tapListener) last() (in, out []byte, writes int) {
	l.mu.Lock()
	c := l.conns[len(l.conns)-1]
	l.mu.Unlock()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.in.Bytes()...), append([]byte(nil), c.out.Bytes()...), c.writes
}

// startTapped serves a daemon behind a tapListener on loopback.
func startTapped(t testing.TB, name string) (*tapListener, string) {
	t.Helper()
	s, err := hostd.New(name, "test-secret", 4096)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapListener{Listener: ln}
	go s.ServeLoop(tap)
	t.Cleanup(func() { ln.Close() })
	return tap, ln.Addr().String()
}

func request(t testing.TB, addr string, cmd hostproto.Command) hostproto.Response {
	t.Helper()
	resp, err := fleet.Request(addr, cmd, 30*time.Second)
	if err != nil {
		t.Fatalf("%s on %s: %v", cmd.Op, addr, err)
	}
	return resp
}

// TestRequestCostIsStateless pins what the control codec is for: a request
// carries no per-connection set-up. One OpCall round trip is a few hundred
// bytes (gob re-sent ≈1.1 KB of type descriptors on every connection, one
// write(2) per descriptor), the reply leaves in a single Write, and the
// tenth request to a daemon costs exactly the bytes of the first.
func TestRequestCostIsStateless(t *testing.T) {
	tap, addr := startTapped(t, "alpha")
	id := request(t, addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}).ID

	call := hostproto.Command{Op: hostproto.OpCall, ID: id, Worker: 0, Selector: testapps.CounterGet}
	var firstIn, firstOut int
	for i := 1; i <= 10; i++ {
		if resp := request(t, addr, call); len(resp.Regs) == 0 {
			t.Fatalf("call #%d returned no registers", i)
		}
		in, out, writes := tap.last()
		if writes != 1 {
			t.Errorf("call #%d: the daemon's reply took %d writes, want 1", i, writes)
		}
		if total := len(in) + len(out); total > 768 {
			t.Errorf("call #%d put %d bytes on the wire (%d + %d), want at most 768", i, total, len(in), len(out))
		}
		if i == 1 {
			firstIn, firstOut = len(in), len(out)
		} else if len(in) != firstIn || len(out) != firstOut {
			t.Errorf("call #%d cost %d + %d bytes, the first %d + %d", i, len(in), len(out), firstIn, firstOut)
		}
	}
	t.Logf("OpCall round trip: %d bytes out, %d back", firstIn, firstOut)
}

// walkStream reads one direction of a daemon-to-daemon connection to its
// end and counts what it is made of. Every byte must belong to a
// length-prefixed hostproto message (a JSON body) or to a wirecodec frame;
// anything else — a gob descriptor, a stray byte, a cut-off record — fails.
func walkStream(t *testing.T, dir string, stream []byte) (messages, ctl, bulk int) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(stream))
	for {
		head, err := br.Peek(5)
		if err == io.EOF && len(head) == 0 {
			return messages, ctl, bulk
		}
		if err != nil {
			t.Fatalf("%s: %d stray bytes at the end of the stream", dir, len(head))
		}
		if head[4] == '{' {
			var body json.RawMessage
			if err := hostproto.Read(br, &body); err != nil {
				t.Fatalf("%s: record %d: %v", dir, messages+ctl+bulk, err)
			}
			messages++
			continue
		}
		f, err := core.ReadFrame(br)
		if err != nil {
			t.Fatalf("%s: record %d: %v", dir, messages+ctl+bulk, err)
		}
		if f.Kind == core.FrameCtl {
			ctl++
		} else {
			bulk++
		}
		f.Release()
	}
}

// TestMigrationStreamIsSingleFormat migrates a counter enclave between two
// daemons and walks both directions of the connection they used: the
// hostproto envelope, the control messages and the checkpoint segments are
// all length-prefixed records of the two stateless encodings, end to end.
func TestMigrationStreamIsSingleFormat(t *testing.T) {
	_, src := startTapped(t, "alpha")
	tap, dst := startTapped(t, "beta")
	id := request(t, src, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}).ID
	request(t, src, hostproto.Command{Op: hostproto.OpMigrateOut, ID: id, Target: dst})

	in, out, _ := tap.last()
	// Source to target: Command and MachineKey, then MsgImage (sent before
	// the source quiesces), the checkpoint announcement and its segment,
	// MsgChannel and MsgKey.
	if messages, ctl, bulk := walkStream(t, "source to target", in); messages != 2 || ctl != 4 || bulk < 1 {
		t.Errorf("source to target: %d hostproto messages, %d control frames, %d bulk frames", messages, ctl, bulk)
	}
	// Target to source: MachineKey, then MsgHello, MsgChannelOK and MsgDone,
	// then the TraceShipment trailer.
	if messages, ctl, bulk := walkStream(t, "target to source", out); messages != 2 || ctl != 3 || bulk != 0 {
		t.Errorf("target to source: %d hostproto messages, %d control frames, %d bulk frames", messages, ctl, bulk)
	}
}

// BenchmarkRequestRoundTrip is the cost of one fleet.Request against a
// loopback daemon holding 32 live sessions: dial, one command, one reply.
// OpCall is the smallest exchange; OpStats carries the 32 session ids the
// fleet's poll reads.
func BenchmarkRequestRoundTrip(b *testing.B) {
	log.SetOutput(io.Discard) // the daemon logs every launch
	b.Cleanup(func() { log.SetOutput(os.Stderr) })
	_, addr := startTapped(b, "alpha")
	var id string
	for i := 0; i < 32; i++ {
		id = request(b, addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}).ID
	}
	for _, cmd := range []hostproto.Command{
		{Op: hostproto.OpCall, ID: id, Selector: testapps.CounterGet},
		{Op: hostproto.OpStats},
	} {
		b.Run(string(cmd.Op), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				request(b, addr, cmd)
			}
		})
	}
}
