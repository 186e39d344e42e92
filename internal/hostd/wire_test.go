package hostd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"os"
	"reflect"
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
	once    sync.Once
}

func (c *tapConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { close(c.done) })
	return err
}

// counts reports the bytes each way and the daemon's Writes so far.
func (c *tapConn) counts() (in, out, writes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.Len(), c.out.Len(), c.writes
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

// accepted returns the connections accepted so far.
func (l *tapListener) accepted() []*tapConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*tapConn(nil), l.conns...)
}

// last returns the most recently accepted connection's traffic, once the
// daemon has closed it, which must happen within a few seconds.
func (l *tapListener) last(t *testing.T) (in, out []byte, writes int) {
	t.Helper()
	l.mu.Lock()
	c := l.conns[len(l.conns)-1]
	l.mu.Unlock()
	select {
	case <-c.done:
	case <-time.After(3 * time.Second):
		t.Fatal("the daemon still holds the connection open")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.in.Bytes()...), append([]byte(nil), c.out.Bytes()...), c.writes
}

// startTapped serves a daemon behind a tapListener on loopback until the
// test ends or the listener is closed.
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
// carries no per-connection set-up, and a client's requests share one
// kept-open connection. One OpCall round trip is a few hundred bytes (gob
// re-sent ≈1.1 KB of type descriptors on every connection, one write(2) per
// descriptor), the reply leaves in a single Write, and the tenth request on
// the connection costs exactly the bytes of the first.
func TestRequestCostIsStateless(t *testing.T) {
	tap, addr := startTapped(t, "alpha")
	id := request(t, addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}).ID

	call := hostproto.Command{Op: hostproto.OpCall, ID: id, Worker: 0, Selector: testapps.CounterGet}
	var firstIn, firstOut int
	for i := 1; i <= 10; i++ {
		conns := tap.accepted()
		if len(conns) != 1 {
			t.Fatalf("call #%d: the daemon accepted %d connections, want the launch's one reused", i, len(conns))
		}
		in0, out0, writes0 := conns[0].counts()
		if resp := request(t, addr, call); len(resp.Regs) == 0 {
			t.Fatalf("call #%d returned no registers", i)
		}
		in1, out1, writes1 := conns[0].counts()
		in, out := in1-in0, out1-out0
		if writes := writes1 - writes0; writes != 1 {
			t.Errorf("call #%d: the daemon's reply took %d writes, want 1", i, writes)
		}
		if total := in + out; total > 768 {
			t.Errorf("call #%d put %d bytes on the wire (%d + %d), want at most 768", i, total, in, out)
		}
		if i == 1 {
			firstIn, firstOut = in, out
		} else if in != firstIn || out != firstOut {
			t.Errorf("call #%d cost %d + %d bytes, the first %d + %d", i, in, out, firstIn, firstOut)
		}
	}
	t.Logf("OpCall round trip: %d bytes out, %d back", firstIn, firstOut)
}

// walkStream reads one direction of a daemon-to-daemon connection to its
// end and returns what it is made of, in order: "cmd", "key" and "trace"
// for the hostproto Command, MachineKey and TraceShipment messages, "ctl"
// for a control frame and "bulk" for a run of bulk frames. Every byte must
// belong to a length-prefixed hostproto message (a JSON body) or to a
// wirecodec frame; anything else — a gob descriptor, a stray byte, a
// cut-off record — fails.
func walkStream(t *testing.T, dir string, stream []byte) []string {
	t.Helper()
	var records []string
	br := bufio.NewReader(bytes.NewReader(stream))
	for {
		head, err := br.Peek(5)
		if err == io.EOF && len(head) == 0 {
			return records
		}
		if err != nil {
			t.Fatalf("%s: %d stray bytes at the end of the stream", dir, len(head))
		}
		if head[4] == '{' {
			var body map[string]json.RawMessage
			if err := hostproto.Read(br, &body); err != nil {
				t.Fatalf("%s: record %d: %v", dir, len(records), err)
			}
			switch {
			case body["Op"] != nil:
				records = append(records, "cmd")
			case body["Key"] != nil:
				records = append(records, "key")
			case body["Trace"] != nil:
				records = append(records, "trace")
			default:
				t.Fatalf("%s: record %d: unknown message %v", dir, len(records), body)
			}
			continue
		}
		f, err := core.ReadFrame(br)
		if err != nil {
			t.Fatalf("%s: record %d: %v", dir, len(records), err)
		}
		switch {
		case f.Kind == core.FrameCtl:
			records = append(records, "ctl")
		case len(records) == 0 || records[len(records)-1] != "bulk":
			records = append(records, "bulk")
		}
		f.Release()
	}
}

// TestMigrationStreamIsSingleFormat migrates two counter enclaves from one
// daemon to another and walks both directions of the connection they
// used: both migrations share it, the machine keys are traded once, on the
// first, and the hostproto envelope, the control messages and the
// checkpoint segments are all length-prefixed records of the two
// stateless encodings, end to end.
func TestMigrationStreamIsSingleFormat(t *testing.T) {
	srcTap, src := startTapped(t, "alpha")
	tap, dst := startTapped(t, "beta")
	for i := 0; i < 2; i++ {
		id := request(t, src, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"}).ID
		request(t, src, hostproto.Command{Op: hostproto.OpMigrateOut, ID: id, Target: dst})
	}
	if n := len(tap.accepted()); n != 1 {
		t.Fatalf("the target accepted %d connections for two migrations, want 1", n)
	}
	// The source closes its idle connection when it shuts down.
	srcTap.Close()
	in, out, _ := tap.last(t)
	// Source to target, per migration: the Command (the first followed by
	// the MachineKey), then MsgImage (sent before the source quiesces),
	// the checkpoint announcement and its segments, MsgChannel and MsgKey.
	migration := []string{"cmd", "ctl", "ctl", "bulk", "ctl", "ctl"}
	want := append(append([]string{"cmd", "key"}, migration[1:]...), migration...)
	if got := walkStream(t, "source to target", in); !reflect.DeepEqual(got, want) {
		t.Errorf("source to target:\n got %v\nwant %v", got, want)
	}
	// Target to source, per migration: MsgHello, MsgChannelOK and MsgDone,
	// then the TraceShipment trailer; the first starts with the MachineKey.
	migration = []string{"ctl", "ctl", "ctl", "trace"}
	want = append(append([]string{"key"}, migration...), migration...)
	if got := walkStream(t, "target to source", out); !reflect.DeepEqual(got, want) {
		t.Errorf("target to source:\n got %v\nwant %v", got, want)
	}
}

// BenchmarkRequestRoundTrip is the cost of one fleet.Request against a
// loopback daemon holding 32 live sessions: one command and one reply on a
// kept-open connection.
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
