// Package testhost spins up in-process sgxhost daemons on ephemeral
// localhost listeners, so tests and benchmarks can drive real TCP
// migrations across N daemons without forking processes or copy-pasting
// the harness. It deliberately does not depend on package testing:
// internal/bench uses it for the drain ablation too, and Check takes the
// part of testing.TB it needs.
package testhost

import (
	"net"
	"strconv"

	"repro/internal/core"
	"repro/internal/hostd"
	"repro/internal/ledger"
	"repro/internal/telemetry"
)

// Options configures a harness host. The zero value is usable.
type Options struct {
	// Secret is the shared deployment secret (default "test-secret").
	// Every host in one fleet must use the same secret.
	Secret string
	// EPCFrames sizes the simulated machine's EPC (default 4096).
	EPCFrames int
	// Sample is the tracer's head-sampling fraction (failed traces are
	// always kept). Fleets under fault sweeps run at 0 to keep span
	// traffic out of the hot path.
	Sample float64
	// MigrationHook, if non-nil, wraps the source-side transport of every
	// outbound migration (see hostd.Server.SetMigrationTransportHook).
	// Installing it here, before the serve loop starts, keeps the field
	// write race-free; dynamic per-migration behaviour belongs inside the
	// hook, keyed by the migrating session's id.
	MigrationHook func(id string, ts core.Transport) core.Transport
}

func (o Options) secret() string {
	if o.Secret == "" {
		return "test-secret"
	}
	return o.Secret
}

func (o Options) epc() int {
	if o.EPCFrames == 0 {
		return 4096
	}
	return o.EPCFrames
}

// Host is one in-process sgxhost on an ephemeral localhost port.
type Host struct {
	S    *hostd.Server
	Addr string
	ln   net.Listener
	done chan struct{} // closed when ServeLoop has returned

	name string
	seed uint64
	opt  Options
}

// Start builds a daemon, gives it a deterministic seeded tracer, binds an
// ephemeral listener, and serves in a background goroutine until Close.
// Seeds must be distinct across the hosts of one test so their span ID
// streams stay disjoint when traces merge.
func Start(name string, seed uint64, opt Options) (*Host, error) {
	h := &Host{name: name, seed: seed, opt: opt}
	if err := h.serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return h, nil
}

// Restart replaces the daemon with a fresh one on the same address: a new
// machine, no sessions, a journal that starts again at Seq 1 — what a
// crashed and restarted sgxhost is to its peers. Not safe concurrently
// with other uses of h.
func (h *Host) Restart() error {
	h.Close()
	return h.serve(h.Addr)
}

// serve builds the daemon and starts it on addr.
func (h *Host) serve(addr string) error {
	name, seed, opt := h.name, h.seed, h.opt
	s, err := hostd.New(name, opt.secret(), opt.epc())
	if err != nil {
		return err
	}
	tr := telemetry.NewSeeded(seed)
	tr.SetSampling(opt.Sample)
	s.SetTelemetry(tr, telemetry.NewMetrics())
	if opt.MigrationHook != nil {
		s.SetMigrationTransportHook(opt.MigrationHook)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		_ = s.ServeLoop(ln)
		close(done)
	}()
	h.S, h.Addr, h.ln, h.done = s, ln.Addr().String(), ln, done
	return nil
}

// Close stops accepting connections and returns once ServeLoop has: every
// connection the daemon accepted is closed (a command still running
// finishes first) and so are its idle ones to other daemons, so a peer's
// next request finds its kept-open connection closed.
func (h *Host) Close() {
	_ = h.ln.Close()
	<-h.done
}

// StartN starts n hosts named h0..h(n-1) with tracer seeds 1..n.
// On error the already-started hosts are closed.
func StartN(n int, opt Options) ([]*Host, error) {
	hosts := make([]*Host, 0, n)
	for i := 0; i < n; i++ {
		h, err := Start(hostName(i), uint64(i+1), opt)
		if err != nil {
			CloseAll(hosts)
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// CloseAll closes every host in hs (nil entries tolerated).
func CloseAll(hs []*Host) {
	for _, h := range hs {
		if h != nil {
			h.Close()
		}
	}
}

// Check is ledger.Check for a fleet: when t ends, every ledger count must
// have come back to where it stood, and the daemon each host serves then
// (the last one, after a Restart) must hold no enclave without a session
// and no stray EPC frame. Call it before registering the cleanup that
// closes the hosts, so that it runs after it.
func Check(t ledger.TB, hs ...*Host) {
	t.Helper()
	var holdings []ledger.Holding
	for _, h := range hs {
		holdings = append(holdings,
			ledger.Holding{Kind: "enclaves without a session on " + h.name, Excess: func() int {
				n, _ := h.S.Unowned()
				return n
			}},
			ledger.Holding{Kind: "stray EPC frames on " + h.name, Excess: func() int {
				_, n := h.S.Unowned()
				return n
			}})
	}
	ledger.Check(t, holdings...)
}

// Addrs returns the listen addresses of hs in order.
func Addrs(hs []*Host) []string {
	addrs := make([]string, len(hs))
	for i, h := range hs {
		addrs[i] = h.Addr
	}
	return addrs
}

func hostName(i int) string {
	return "h" + strconv.Itoa(i)
}
