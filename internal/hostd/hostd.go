// Package hostd implements the sgxhost daemon: one simulated SGX machine
// serving the hostproto wire protocol over TCP. It can launch enclaves
// from its built-in image registry, execute ecalls on behalf of clients,
// report its capacity and load (OpStats, polled by the sgxfleet control
// plane), act as the source of an enclave migration, and accept incoming
// migrations.
//
// The daemon logic lives here rather than in cmd/sgxhost so that tests
// and benchmarks can run whole fleets of daemons in-process on ephemeral
// listeners (internal/testhost); cmd/sgxhost is a thin flag wrapper.
package hostd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/hostproto"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/telemetry"
	"repro/internal/testapps"
	"repro/internal/workload"
)

// Server is one sgxhost daemon without its sockets: bind a listener and
// hand it to ServeLoop. Every party in a deployment (hosts and clients)
// must share the same secret; it deterministically derives the enclave
// owner's keys and the attestation-service identity, standing in for
// out-of-band key distribution.
type Server struct {
	mu       sync.Mutex
	name     string
	machine  *sgx.Machine
	host     *enclave.Host
	service  *attest.Service
	owner    *core.Owner
	registry *core.Registry
	next     int // launch/migrate-in ID counter; guarded by mu

	// sessions is the table of live enclave sessions, under its own lock so
	// calls into enclaves don't serialize on s.mu.
	sessions *core.SessionTable

	// inflightIn/inflightOut count migrations currently executing with
	// this host as target/source; reported in OpStats so the fleet can
	// see convergence pressure.
	inflightIn  atomic.Int64
	inflightOut atomic.Int64

	// migrationHook, if non-nil, wraps the source-side transport of every
	// outbound migration — tests inject core.FaultyTransport through it.
	// Must be set before the server starts serving.
	migrationHook func(id string, ts core.Transport) core.Transport

	// tr/met are nil unless telemetry is enabled; all uses are nil-safe.
	tr  *telemetry.Tracer
	met *telemetry.Metrics
	// journal is the structured protocol-event ring, always on (the
	// appends are allocation-free): it is the daemon's audit trail, served
	// incrementally through OpEvents and /events. SetJournal resizes it.
	journal *telemetry.Journal
}

// New builds a daemon without binding any sockets.
func New(name, secret string, epc int) (*Server, error) {
	ids := hostproto.DeriveIdentities(secret)
	service := attest.NewServiceFromSeed(ids.ServiceSeed)
	owner := core.NewOwnerFromSeeds(service, ids.SignerSeed, ids.EnclaveSeed, ids.Kencrypt)

	machine, err := sgx.NewMachine(sgx.Config{Name: name, EPCFrames: epc, Quantum: 2000})
	if err != nil {
		return nil, err
	}
	service.RegisterMachine(machine.AttestationPublic())

	registry := core.NewRegistry()
	for _, app := range builtinImages(owner) {
		registry.Add(core.NewDeployment(app, owner))
	}

	s := &Server{
		name:     name,
		machine:  machine,
		host:     enclave.NewBareHost(machine),
		service:  service,
		owner:    owner,
		registry: registry,
		sessions: core.NewSessionTable(),
	}
	s.SetJournal(telemetry.NewJournal(0))
	return s, nil
}

// EnableTelemetry turns on the tracer and metrics registry with the given
// head-sampling fraction.
func (s *Server) EnableTelemetry(sample float64) {
	tr := telemetry.New()
	tr.SetSampling(sample)
	s.SetTelemetry(tr, telemetry.NewMetrics())
}

// SetTelemetry installs a caller-built tracer and metrics registry (tests
// use seeded tracers for deterministic span IDs). Either may be nil.
func (s *Server) SetTelemetry(tr *telemetry.Tracer, met *telemetry.Metrics) {
	s.tr = tr
	s.met = met
	s.host.Mgr.SetMetrics(met)
}

// SetJournal replaces the daemon's event journal (cmd/sgxhost uses it to
// honor -journal-cap) and rewires the EPC manager's pressure events to
// it. Must be called before the server starts serving.
func (s *Server) SetJournal(j *telemetry.Journal) {
	s.journal = j
	s.host.Mgr.SetJournal(j)
}

// Journal returns the daemon's event journal.
func (s *Server) Journal() *telemetry.Journal { return s.journal }

// Tracer returns the daemon's tracer (nil when telemetry is off).
func (s *Server) Tracer() *telemetry.Tracer { return s.tr }

// Metrics returns the daemon's metrics registry (nil when telemetry is off).
func (s *Server) Metrics() *telemetry.Metrics { return s.met }

// Name returns the machine name the daemon was built with.
func (s *Server) Name() string { return s.name }

// AttestationPublic returns the machine's attestation public key.
func (s *Server) AttestationPublic() tcb.PublicKey { return s.machine.AttestationPublic() }

// SetMigrationTransportHook installs a wrapper applied to the source-side
// transport of every outbound migration (the id is the migrating
// session's). Tests use it to inject core.FaultyTransport into real
// TCP migrations. Must be called before the server starts serving.
func (s *Server) SetMigrationTransportHook(h func(id string, ts core.Transport) core.Transport) {
	s.migrationHook = h
}

// ServeLoop accepts connections until the listener closes.
func (s *Server) ServeLoop(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serve(conn)
	}
}

// RefreshGauges publishes the pull-only instruments before a scrape.
func (s *Server) RefreshGauges() {
	ee, er, ax := s.machine.ExecCounters()
	s.met.Gauge("sgx.eenter").Set(int64(ee))
	s.met.Gauge("sgx.eresume").Set(int64(er))
	s.met.Gauge("sgx.aex").Set(int64(ax))
	s.met.Gauge("host.sessions").Set(int64(s.sessions.Len()))
	s.met.Gauge("epcman.frames.free").Set(int64(s.host.Mgr.FreeFrames()))
	s.met.Gauge("host.migrations.inflight.in").Set(s.inflightIn.Load())
	s.met.Gauge("host.migrations.inflight.out").Set(s.inflightOut.Load())
}

// builtinImages is the deployment set every host knows.
func builtinImages(owner *core.Owner) []*enclave.App {
	apps := []*enclave.App{
		testapps.CounterApp(2),
		testapps.BankApp(2),
		workload.KVApp(256*1024, 2),
	}
	for _, a := range apps {
		owner.ConfigureApp(a)
	}
	return apps
}

// firstMessageTimeout is how long a fresh connection may take to deliver
// its command. Clients send it right after connecting; a peer that
// connects and goes quiet, or announces a length and never sends the
// bytes, must not hold a goroutine and a socket for good.
const firstMessageTimeout = 10 * time.Second

// migrateIdle is how long a migration stream may stay silent between two
// messages, in either direction. The longest legitimate silence on an
// inbound stream is the source quiescing its enclave (core's 10 s default
// poll budget) and then dumping it, after it has announced the image; the
// target builds its enclave on that announcement, so a peer that goes quiet
// there holds EPC as well as a goroutine and a socket. On an outbound
// stream it is the target building and restoring; a target that goes quiet
// holds the source's enclave quiesced.
const migrateIdle = 30 * time.Second

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	// One stream per connection, shared with the migration transport: its
	// frames and the hostproto messages around them go through the same
	// writer and buffered reader (see core.NewConnStream).
	w, br, ts := core.NewConnStream(conn)
	_ = conn.SetReadDeadline(time.Now().Add(firstMessageTimeout))
	var cmd hostproto.Command
	if err := hostproto.Read(br, &cmd); err != nil {
		return
	}
	switch cmd.Op {
	case hostproto.OpMigrateIn:
		// Every further message of the stream is on a clock of its own.
		s.handleMigrateIn(idleTransport{ts, conn}, br, w, cmd)
	default:
		// Nothing more is read: the answer may take as long as it takes.
		_ = conn.SetReadDeadline(time.Time{})
		_ = hostproto.Write(w, s.handle(cmd))
	}
}

// idleTransport is a migration's transport with the per-message idle clock:
// the connection's read deadline is re-armed before every receive and
// cleared nowhere, so each message or frame has migrateIdle to arrive in
// full, however long the work between two of them takes.
type idleTransport struct {
	core.Transport
	conn net.Conn
}

func (t idleTransport) arm() { _ = t.conn.SetReadDeadline(time.Now().Add(migrateIdle)) }

func (t idleTransport) Recv() (core.Message, error) {
	t.arm()
	return t.Transport.Recv()
}

func (t idleTransport) RecvFrame() (*core.PageFrame, error) {
	t.arm()
	return t.Transport.RecvFrame()
}

// traceContext recovers the caller's trace context from a request; a
// malformed header degrades to untraced rather than failing the op.
func traceContext(cmd hostproto.Command) telemetry.Context {
	ctx, err := telemetry.Extract(cmd.TraceParent)
	if err != nil {
		log.Printf("sgxhost: ignoring malformed traceparent %q: %v", cmd.TraceParent, err)
		return telemetry.Context{}
	}
	return ctx
}

func (s *Server) handle(cmd hostproto.Command) hostproto.Response {
	s.met.Counter("host.ops." + string(cmd.Op)).Inc()
	ctx := traceContext(cmd)
	var sp *telemetry.Span
	var resp hostproto.Response
	switch cmd.Op {
	case hostproto.OpLaunch:
		sp = s.tr.BeginRemote("host.launch", ctx, telemetry.String("image", cmd.Image))
		resp = s.launch(cmd.Image)
	case hostproto.OpCall:
		resp = s.call(cmd)
	case hostproto.OpList:
		resp = s.list()
	case hostproto.OpStats:
		resp = hostproto.Response{Stats: s.Stats()}
	case hostproto.OpEvents:
		resp = s.events(cmd)
	case hostproto.OpMigrateOut:
		sp = s.tr.BeginRemote("host.migrateout", ctx,
			telemetry.String("enclave", cmd.ID), telemetry.String("target", cmd.Target))
		resp = s.migrateOut(cmd, sp)
	default:
		resp = hostproto.Response{Err: fmt.Sprintf("unknown op %q", cmd.Op)}
	}
	if resp.Err != "" {
		sp.Fail(errors.New(resp.Err))
	} else {
		sp.End()
	}
	// Return this host's finished spans for the caller's trace (including
	// any the migration target shipped to us) so the client can merge them.
	if s.tr != nil && !ctx.TraceID.IsZero() {
		resp.Trace = s.tr.ExportTrace(ctx.TraceID)
		resp.Trace.Proc = "sgxhost " + s.name
	}
	return resp
}

func (s *Server) launch(image string) hostproto.Response {
	dep, ok := s.registry.Lookup(image)
	if !ok {
		return hostproto.Response{Err: fmt.Sprintf("unknown image %q", image)}
	}
	rt, err := enclave.BuildSigned(s.host, dep.App, dep.Sig)
	if err != nil {
		return hostproto.Response{Err: err.Error()}
	}
	if err := s.owner.Provision(rt); err != nil {
		_ = rt.Destroy()
		return hostproto.Response{Err: err.Error()}
	}
	s.mu.Lock()
	s.next++
	id := fmt.Sprintf("%s-%d", image, s.next)
	s.mu.Unlock()
	s.sessions.Add(id, rt)
	log.Printf("launched %s (enclave %d)", id, rt.EnclaveID())
	return hostproto.Response{ID: id}
}

func (s *Server) call(cmd hostproto.Command) hostproto.Response {
	rt, ok := s.sessions.Lookup(cmd.ID)
	if !ok {
		return hostproto.Response{Err: fmt.Sprintf("no enclave %q", cmd.ID)}
	}
	res, err := rt.ECall(cmd.Worker, cmd.Selector, cmd.Args...)
	if err != nil {
		return hostproto.Response{Err: err.Error()}
	}
	return hostproto.Response{Regs: res[:]}
}

func (s *Server) list() hostproto.Response {
	var ids []string
	s.sessions.Range(func(id string, rt *enclave.Runtime) bool {
		status := "live"
		if rt.Dead() {
			status = "dead"
		}
		ids = append(ids, id+" ("+status+")")
		return true
	})
	return hostproto.Response{IDs: ids}
}

// Stats snapshots the host's capacity and load for OpStats. Dead
// sessions are normally absent (migrated-away enclaves are reaped), but
// the field keeps a stuck reap visible to the fleet instead of silent.
func (s *Server) Stats() hostproto.HostStats {
	st := hostproto.HostStats{
		Name:        s.name,
		FreeEPC:     s.host.Mgr.FreeFrames(),
		TotalEPC:    s.machine.NumFrames(),
		InflightIn:  int(s.inflightIn.Load()),
		InflightOut: int(s.inflightOut.Load()),
	}
	s.sessions.Range(func(id string, rt *enclave.Runtime) bool {
		if rt.Dead() {
			st.Dead = append(st.Dead, id)
		} else {
			st.Live = append(st.Live, id)
		}
		return true
	})
	sort.Strings(st.Live)
	sort.Strings(st.Dead)
	return st
}

// events answers OpEvents: the journal tail after the request's cursor
// plus a counter snapshot, from which the fleet federator builds the
// merged event stream and per-host rate series.
func (s *Server) events(cmd hostproto.Command) hostproto.Response {
	recs, next := s.journal.Since(cmd.Cursor)
	return hostproto.Response{
		Events:     recs,
		NextCursor: next,
		Counters:   s.met.CounterValues(),
	}
}

// migrateOut ships one of our enclaves to another sgxhost. The op span sp
// (may be nil) parents the core migration phases and its context is
// forwarded to the target host, whose spans come back in a TraceShipment
// after the core protocol finishes.
func (s *Server) migrateOut(cmd hostproto.Command, sp *telemetry.Span) hostproto.Response {
	rt, ok := s.sessions.Lookup(cmd.ID)
	if !ok {
		return hostproto.Response{Err: fmt.Sprintf("no enclave %q", cmd.ID)}
	}
	s.inflightOut.Add(1)
	defer s.inflightOut.Add(-1)
	conn, err := net.Dial("tcp", cmd.Target)
	if err != nil {
		return hostproto.Response{Err: err.Error()}
	}
	defer conn.Close()
	return s.migrateOutOn(conn, rt, cmd, sp)
}

// migrateOutOn runs the outbound migration of rt over conn. Every read of
// the stream is on the migrateIdle clock, as an inbound stream's are: a
// target that goes silent — after the checkpoint, say, with the enclave
// quiesced — fails the migration within migrateIdle, and the enclave
// resumes, instead of being held until TCP gives up.
func (s *Server) migrateOutOn(conn net.Conn, rt *enclave.Runtime, cmd hostproto.Command, sp *telemetry.Span) hostproto.Response {
	w, br, stream := core.NewConnStream(conn)
	idle := idleTransport{stream, conn}
	var ts core.Transport = idle
	if err := hostproto.Write(w, hostproto.Command{
		Op:          hostproto.OpMigrateIn,
		ID:          cmd.ID,
		TraceParent: sp.Context().Inject(),
	}); err != nil {
		return hostproto.Response{Err: err.Error()}
	}
	// Exchange machine attestation keys so the attestation plumbing works
	// across processes.
	if err := hostproto.Write(w, hostproto.MachineKey{Key: s.machine.AttestationPublic()}); err != nil {
		return hostproto.Response{Err: err.Error()}
	}
	var peer hostproto.MachineKey
	idle.arm()
	if err := hostproto.Read(br, &peer); err != nil {
		return hostproto.Response{Err: err.Error()}
	}
	s.service.RegisterMachine(peer.Key)

	if s.migrationHook != nil {
		ts = s.migrationHook(cmd.ID, ts)
	}
	opts := &core.Options{Service: s.service, Trace: sp, Metrics: s.met,
		Journal: s.journal, EnclaveID: cmd.ID}
	// The handshake, the migration frames, and the trailing TraceShipment
	// all ride the one stream NewConnStream owns: a second reader on the
	// same conn would lose buffered bytes.
	rep, err := core.MigrateOut(rt, ts, opts)
	s.recvTraceShipment(conn, br, sp, err)
	if err != nil {
		s.met.Counter("host.migrations.failed").Inc()
		if rt.Dead() {
			// The failure landed at or past the key-release commit point:
			// the source instance self-destroyed even though the protocol
			// errored (the target may or may not have restored it). Reap
			// the session so its EPC frames return and the host converges
			// to "this enclave is not here" either way.
			s.reap(cmd.ID, rt)
		}
		return hostproto.Response{Err: err.Error()}
	}
	s.met.Counter("host.migrations.out").Inc()
	// The enclave now runs on the target; remove the self-destroyed
	// session and free its EPC frames. Before this reap, a drained host
	// kept one dead session (and its frames) per departed enclave until
	// process exit.
	s.reap(cmd.ID, rt)
	log.Printf("migrated %s to %s: prepare=%v dump=%v channel=%v total=%v (%d checkpoint bytes)",
		cmd.ID, cmd.Target, rep.PrepareTime, rep.DumpTime, rep.ChannelTime, rep.TotalTime, rep.CheckpointBytes)
	return hostproto.Response{Report: fmt.Sprintf("total=%v checkpoint=%dB", rep.TotalTime, rep.CheckpointBytes)}
}

// reap removes a migrated-away session and frees its EPC. The runtime has
// already self-destroyed; Destroy only fails while a worker thread is
// still inside the enclave observing the destruction, so retry briefly.
func (s *Server) reap(id string, rt *enclave.Runtime) {
	s.sessions.Remove(id)
	var err error
	for i := 0; i < 100; i++ {
		if err = rt.Destroy(); err == nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	log.Printf("sgxhost %s: reap %s: %v", s.name, id, err)
}

// recvTraceShipment reads the target's span buffer off the migration
// connection and folds it into the local tracer. The target always sends
// one (empty when untraced), but if it died mid-protocol nothing may
// come — a read deadline keeps a broken migration from hanging the
// source, at worst losing the target's half of the trace. When the
// migration itself failed (migErr non-nil) the stream state is unknown
// and the client is waiting on the error response, so only a short grace
// is given for the target's abort-path trailer to arrive.
func (s *Server) recvTraceShipment(conn net.Conn, br *bufio.Reader, sp *telemetry.Span, migErr error) {
	if sp == nil {
		return // telemetry dark: nothing to merge into
	}
	deadline := 3 * time.Second
	if migErr != nil {
		deadline = 250 * time.Millisecond
	}
	_ = conn.SetReadDeadline(time.Now().Add(deadline))
	defer conn.SetReadDeadline(time.Time{})
	var ship hostproto.TraceShipment
	if err := hostproto.Read(br, &ship); err != nil {
		return
	}
	s.tr.Adopt(ship.Trace)
}

// handleMigrateIn accepts an inbound migration on this connection. ts, br
// and w are the connection's transport (on the idle clock), reader and
// writer from core.NewConnStream.
func (s *Server) handleMigrateIn(ts idleTransport, br *bufio.Reader, w io.Writer, cmd hostproto.Command) {
	s.met.Counter("host.ops." + string(cmd.Op)).Inc()
	s.inflightIn.Add(1)
	defer s.inflightIn.Add(-1)
	ctx := traceContext(cmd)
	sp := s.tr.BeginRemote("host.migratein", ctx, telemetry.String("enclave", cmd.ID))
	var peer hostproto.MachineKey
	ts.arm() // the key exchange is on the idle clock too
	if err := hostproto.Read(br, &peer); err != nil {
		sp.Fail(err)
		return
	}
	s.service.RegisterMachine(peer.Key)
	if err := hostproto.Write(w, hostproto.MachineKey{Key: s.machine.AttestationPublic()}); err != nil {
		sp.Fail(err)
		return
	}
	opts := &core.Options{Service: s.service, Trace: sp, Metrics: s.met,
		Journal: s.journal, EnclaveID: cmd.ID}
	inc, err := core.MigrateIn(s.host, s.registry, ts, opts)
	if err != nil {
		sp.Fail(err)
		s.shipTrace(w, ctx)
		s.met.Counter("host.migrations.failed").Inc()
		log.Printf("inbound migration failed: %v", err)
		return
	}
	s.met.Counter("host.migrations.in").Inc()
	go func() {
		for r := range inc.Results {
			if r.Err != nil {
				log.Printf("resumed worker %d failed: %v", r.Worker, r.Err)
			} else {
				log.Printf("resumed worker %d completed: R0=%d", r.Worker, r.Regs[0])
			}
		}
	}()
	s.mu.Lock()
	s.next++
	id := fmt.Sprintf("%s@%d", cmd.ID, s.next)
	s.mu.Unlock()
	s.sessions.Add(id, inc.Runtime)
	sp.End()
	s.shipTrace(w, ctx)
	log.Printf("accepted migration of %s as %s (restore=%v verify=%v)", cmd.ID, id, inc.RestoreTime, inc.VerifyTime)
}

// shipTrace sends this host's finished spans for the migration's trace
// back to the source. Always sent — empty when untraced or telemetry is
// dark — so the source reads exactly one trailer message. Send errors are
// ignored: the migration already committed or aborted, only observability
// is at stake.
func (s *Server) shipTrace(w io.Writer, ctx telemetry.Context) {
	var ship hostproto.TraceShipment
	if s.tr != nil && !ctx.TraceID.IsZero() {
		ship.Trace = s.tr.ExportTrace(ctx.TraceID)
		ship.Trace.Proc = "sgxhost " + s.name
	}
	_ = hostproto.Write(w, ship)
}
