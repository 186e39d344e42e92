package fleet

import (
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

// Request dials addr, sends one command, and decodes the response,
// holding the whole exchange (dial, write, read) to the given timeout;
// 0 means no deadline. A non-empty Response.Err comes back as a
// *HostError alongside the response. This is the one request helper the
// repo's clients share: sgxfleet's control loops and sgxmigrate both use
// it, so a wedged daemon can never hang either CLI.
func Request(addr string, cmd hostproto.Command, timeout time.Duration) (hostproto.Response, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return hostproto.Response{}, err
	}
	defer conn.Close()
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	if err := hostproto.Write(conn, cmd); err != nil {
		return hostproto.Response{}, err
	}
	var resp hostproto.Response
	if err := hostproto.Read(conn, &resp); err != nil {
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
