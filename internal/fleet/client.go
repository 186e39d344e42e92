package fleet

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"time"

	"repro/internal/hostproto"
	"repro/internal/telemetry"
)

// HostError is a failure the daemon itself reported (Response.Err), as
// opposed to a network-level failure reaching it. The distinction matters
// for retry classification: a refused op ("unknown image") is permanent,
// while a torn migration connection is worth retrying.
type HostError struct {
	Addr string
	Msg  string
}

func (e *HostError) Error() string { return e.Addr + ": " + e.Msg }

// conns keeps Request's connections open between requests, per daemon
// address, each with the buffered reader every response on it is read
// through.
var conns hostproto.Pool[*bufio.Reader]

// Request sends one command to the daemon at addr and decodes the
// response, holding the exchange to the given timeout (the dial, then the
// write and the read together); 0 means no deadline. It reuses an idle
// connection to addr when one is still open (hostproto.Pool: at most
// hostproto.MaxIdlePerAddr per address, each for at most
// hostproto.KeepAlive) and dials otherwise. A connection goes back only
// after a complete response with nothing after it; any error closes it. A
// non-empty Response.Err comes back as a *HostError alongside the
// response. This is the one request helper the repo's clients share:
// sgxfleet's control loops and sgxmigrate both use it, so a wedged daemon
// can never hang either CLI.
func Request(addr string, cmd hostproto.Command, timeout time.Duration) (hostproto.Response, error) {
	conn, br, ok := conns.Get(addr)
	if !ok {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return hostproto.Response{}, err
		}
		conn, br = c, bufio.NewReader(c)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	_ = conn.SetDeadline(deadline)
	var resp hostproto.Response
	err := hostproto.Write(conn, cmd)
	if err == nil {
		err = hostproto.Read(br, &resp)
	}
	if err != nil || br.Buffered() > 0 {
		_ = conn.Close()
	} else {
		_ = conn.SetDeadline(time.Time{}) // a stale deadline would fail the liveness check
		conns.Put(addr, conn, br)
	}
	if err != nil {
		return hostproto.Response{}, err
	}
	if resp.Err != "" {
		return resp, &HostError{Addr: addr, Msg: resp.Err}
	}
	return resp, nil
}

// TracedRequest wraps Request with a client span parented under sp: the
// daemon sees the trace context, opens its spans under it, and returns
// its span buffer in the response, which is adopted into tr so the
// caller can export one merged timeline. tr and sp may be nil (untraced).
func TracedRequest(tr *telemetry.Tracer, sp *telemetry.Span, addr string, cmd hostproto.Command, timeout time.Duration) (hostproto.Response, error) {
	rsp := sp.Child("client."+string(cmd.Op), telemetry.String("addr", addr))
	cmd.TraceParent = rsp.Context().Inject()
	resp, err := Request(addr, cmd, timeout)
	tr.Adopt(resp.Trace)
	rsp.Fail(err)
	return resp, err
}

// transientErr reports whether err is worth retrying: network-level
// failures (dial, deadline, torn connection) always are, and
// daemon-reported errors are when they describe a broken migration
// transport rather than a refused operation. The daemon reports errors
// as strings, so this is a classification of its known failure texts;
// unrecognized daemon errors count as permanent.
func transientErr(err error) bool {
	if err == nil {
		return false
	}
	var he *HostError
	if !errors.As(err, &he) {
		return true // never reached the daemon, or the reply was cut off
	}
	for _, marker := range []string{
		"injected transport fault", // core.ErrInjectedFault (fault sweeps)
		"transport closed",         // core.ErrTransportClosed
		"connection re",            // connection reset / refused mid-migration
		"broken pipe",
		"EOF",
		"i/o timeout",
		"aborted", // target-side abort notification
	} {
		if strings.Contains(he.Msg, marker) {
			return true
		}
	}
	return false
}
