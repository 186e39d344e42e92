package main

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/hostd"
	"repro/internal/hostproto"
	"repro/internal/testapps"
)

const (
	daemonSecret = "benchmark"
	daemonEPC    = 16384
	// requestTimeout bounds every client request, the blocking migrate-out
	// included (fleet's own default).
	requestTimeout = 10 * time.Second
)

// countingListener counts the bytes of every connection a daemon accepts,
// in both directions. A migration's stream arrives on the target's
// listener and the client's request on the source's, so the sum over a
// world's listeners is everything an operation put on the wire.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// daemon is one in-process sgxhost on a loopback listener.
type daemon struct {
	srv  *hostd.Server
	addr string
	ln   net.Listener
}

// daemons is a world of n sgxhost daemons sharing one wire-byte counter.
type daemons struct {
	hosts []*daemon
	wire  atomic.Int64
}

// startDaemons builds n default-configured daemons the way cmd/sgxhost
// does (hostd.New, net.Listen, ServeLoop). traced switches the product's
// own tracer on at sampling 1.
func startDaemons(n int, traced bool) (*daemons, error) {
	d := &daemons{}
	for i := 0; i < n; i++ {
		srv, err := hostd.New(fmt.Sprintf("h%d", i), daemonSecret, daemonEPC)
		if err != nil {
			d.close()
			return nil, err
		}
		if traced {
			srv.EnableTelemetry(1)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		// ServeLoop returns when close() closes the listener.
		go srv.ServeLoop(countingListener{ln, &d.wire})
		d.hosts = append(d.hosts, &daemon{srv: srv, addr: ln.Addr().String(), ln: ln})
	}
	return d, nil
}

// close stops accepting; sessions and enclaves die with the world.
func (d *daemons) close() {
	for _, h := range d.hosts {
		_ = h.ln.Close()
	}
}

// paging sums the daemons' EPC evictions and reloads. Only a traced world
// can tell: the counters live in the metrics registry EnableTelemetry
// installs, and a daemon exposes its EPC manager no other way.
func (d *daemons) paging() (evictions, reloads float64) {
	for _, h := range d.hosts {
		c := h.srv.Metrics().CounterValues()
		evictions += float64(c["epcman.evictions"])
		reloads += float64(c["epcman.reloads"])
	}
	return evictions, reloads
}

func (d *daemons) addrs() []string {
	out := make([]string, len(d.hosts))
	for i, h := range d.hosts {
		out[i] = h.addr
	}
	return out
}

// request is one client round trip under a span named for the layer call.
func request(parent spanRef, name, addr string, cmd hostproto.Command) (hostproto.Response, error) {
	sp := parent.child(name)
	defer sp.end()
	return fleet.Request(addr, cmd, requestTimeout)
}

func launchCounter(parent spanRef, addr string, v uint64) (string, error) {
	resp, err := request(parent, "hostd.launch", addr, hostproto.Command{Op: hostproto.OpLaunch, Image: "counter"})
	if err != nil {
		return "", err
	}
	if _, err := counterCall(parent, addr, resp.ID, testapps.CounterAdd, v); err != nil {
		return "", err
	}
	return resp.ID, nil
}

func counterCall(parent spanRef, addr, id string, sel uint64, args ...uint64) (uint64, error) {
	resp, err := request(parent, "hostd.call", addr, hostproto.Command{
		Op: hostproto.OpCall, ID: id, Selector: sel, Args: args,
	})
	if err != nil {
		return 0, err
	}
	if len(resp.Regs) == 0 {
		return 0, fmt.Errorf("call %s on %s: empty register file", id, addr)
	}
	return resp.Regs[0], nil
}

func stats(parent spanRef, addr string) (hostproto.HostStats, error) {
	resp, err := request(parent, "hostd.locate", addr, hostproto.Command{Op: hostproto.OpStats})
	return resp.Stats, err
}

// locate finds the session a migration of id registered on addr. The
// target registers an inbound session an instant after the acknowledgment
// that completes the source's migrate-out, so an absent id is asked for
// again while the target still reports the migration in flight.
func locate(parent spanRef, addr, id string) (string, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := stats(parent, addr)
		if err != nil {
			return "", err
		}
		for _, live := range st.Live {
			if strings.HasPrefix(live, id+"@") {
				return live, nil
			}
		}
		if st.InflightIn == 0 {
			return "", fmt.Errorf("%s is not live on %s (live: %v)", id, addr, st.Live)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s never registered on %s", id, addr)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// notLive is the single-instance check: after a successful migration the
// source must not list the id as a live session.
func notLive(parent spanRef, addr, id string) error {
	st, err := stats(parent, addr)
	if err != nil {
		return err
	}
	for _, live := range st.Live {
		if live == id {
			return fmt.Errorf("single-instance violated: %s still live on source %s", id, addr)
		}
	}
	return nil
}
