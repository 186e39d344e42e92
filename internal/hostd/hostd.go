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
	"errors"
	"fmt"
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

	// in tracks the accepted connections; peers keeps connections to
	// other daemons open from one outbound migration to the next.
	in    inbound
	peers hostproto.Pool[*stream]
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

// ServeLoop accepts connections until the listener closes. It then closes
// the connections waiting for a command and its idle connections to other
// daemons, lets the commands still running finish, and returns once every
// connection it accepted is closed: a peer's next request to a replaced
// daemon finds its kept-open connection closed, never half-way there.
func (s *Server) ServeLoop(ln net.Listener) error {
	var serving sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.in.close()
			s.peers.Close()
			serving.Wait()
			return err
		}
		serving.Add(1)
		go func() {
			defer serving.Done()
			s.serve(conn)
		}()
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

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	defer s.in.done(conn)
	// One stream per connection, shared with the migration transport: its
	// frames and the hostproto messages around them go through the same
	// writer and buffered reader (see core.NewConnStream). The connection
	// carries one command after another, each on the IdleTimeout clock.
	st := newStream(conn)
	for s.in.idle(conn) {
		var cmd hostproto.Command
		err := hostproto.Read(st.br, &cmd)
		if !s.in.busy(conn) || err != nil {
			return
		}
		if cmd.Op == hostproto.OpMigrateIn {
			// Every further message of the migration is on a clock of
			// its own; one that fails or aborts ends the connection.
			if !s.handleMigrateIn(st, cmd) {
				return
			}
			continue
		}
		// Nothing is read until the answer is out, and the answer is on
		// the IdleTimeout clock: a peer that stops reading it (an OpEvents
		// tail, say) is dropped as one that stops sending would be, rather
		// than holding this goroutine until TCP gives up.
		resp := s.handle(cmd)
		_ = conn.SetWriteDeadline(time.Now().Add(hostproto.IdleTimeout))
		if hostproto.Write(st.w, resp) != nil {
			return
		}
	}
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

// Unowned reports what the daemon holds that none of its sessions needs:
// live enclaves beyond its sessions, and EPC frames that are neither free
// nor an enclave's. Both are 0 on a daemon that leaks nothing.
func (s *Server) Unowned() (enclaves, frames int) {
	return s.machine.LiveEnclaves() - s.sessions.Len(), s.host.Mgr.StrayFrames()
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
// after the core protocol finishes. The connection to the target comes
// from the server's pool, and goes back to it only after a clean migration
// with nothing unread behind it.
func (s *Server) migrateOut(cmd hostproto.Command, sp *telemetry.Span) hostproto.Response {
	rt, ok := s.sessions.Lookup(cmd.ID)
	if !ok {
		return hostproto.Response{Err: fmt.Sprintf("no enclave %q", cmd.ID)}
	}
	s.inflightOut.Add(1)
	defer s.inflightOut.Add(-1)
	st, err := s.peer(cmd.Target)
	if err != nil {
		return hostproto.Response{Err: err.Error()}
	}
	resp, clean := s.migrateOutOn(st, rt, cmd, sp)
	if clean && st.br.Buffered() == 0 {
		s.peers.Put(cmd.Target, st.conn, st)
	} else {
		_ = st.conn.Close()
	}
	return resp
}

// migrateOutOn runs the outbound migration of rt over st. Every read and
// write of the stream is on the migrateIdle clock, as an inbound stream's
// are: a target that goes silent, or stops reading, fails the migration
// within migrateIdle, and the enclave resumes, instead of being held until
// TCP gives up. clean reports that the migration succeeded and the
// target's trailer arrived: only then is the stream aligned for the next
// migration.
func (s *Server) migrateOutOn(st *stream, rt *enclave.Runtime, cmd hostproto.Command, sp *telemetry.Span) (resp hostproto.Response, clean bool) {
	if err := st.write(hostproto.Command{
		Op:          hostproto.OpMigrateIn,
		ID:          cmd.ID,
		TraceParent: sp.Context().Inject(),
	}); err != nil {
		return hostproto.Response{Err: err.Error()}, false
	}
	// The first migration on a connection trades machine attestation keys
	// so the attestation plumbing works across processes.
	if !st.keyed {
		if err := st.write(hostproto.MachineKey{Key: s.machine.AttestationPublic()}); err != nil {
			return hostproto.Response{Err: err.Error()}, false
		}
		var peer hostproto.MachineKey
		if err := st.read(&peer); err != nil {
			return hostproto.Response{Err: err.Error()}, false
		}
		s.service.RegisterMachine(peer.Key)
		st.keyed = true
	}

	var ts core.Transport = st
	if s.migrationHook != nil {
		ts = s.migrationHook(cmd.ID, ts)
	}
	opts := &core.Options{Service: s.service, Trace: sp, Metrics: s.met,
		Journal: s.journal, EnclaveID: cmd.ID}
	// The handshake, the migration frames, and the trailing TraceShipment
	// all ride the one stream NewConnStream owns: a second reader on the
	// same conn would lose buffered bytes.
	rep, err := core.MigrateOut(rt, ts, opts)
	trailer := s.recvTraceShipment(st, sp, err)
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
		return hostproto.Response{Err: err.Error()}, false
	}
	s.met.Counter("host.migrations.out").Inc()
	// The enclave now runs on the target; remove the self-destroyed
	// session and free its EPC frames. Before this reap, a drained host
	// kept one dead session (and its frames) per departed enclave until
	// process exit.
	s.reap(cmd.ID, rt)
	log.Printf("migrated %s to %s: prepare=%v dump=%v channel=%v total=%v (%d checkpoint bytes)",
		cmd.ID, cmd.Target, rep.PrepareTime, rep.DumpTime, rep.ChannelTime, rep.TotalTime, rep.CheckpointBytes)
	return hostproto.Response{Report: fmt.Sprintf("total=%v checkpoint=%dB", rep.TotalTime, rep.CheckpointBytes)}, trailer == nil
}

// reap removes a migrated-away session and frees its EPC. The runtime has
// already self-destroyed; Destroy waits for worker threads still inside
// the enclave to leave.
func (s *Server) reap(id string, rt *enclave.Runtime) {
	s.sessions.Remove(id)
	if err := rt.Destroy(); err != nil {
		log.Printf("sgxhost %s: reap %s: %v", s.name, id, err)
	}
}

// recvTraceShipment reads the target's trailer — its span buffer for the
// migration's trace, empty when untraced — and folds it into the local
// tracer. After a clean migration it is always read, on the idle clock: it
// is the last message of the migration, sent after the target registered
// the new session, and only a stream that delivered it is aligned for the
// next migration. After a failed one (migErr non-nil) the stream state is
// unknown and the connection is closed anyway, so the trailer is read only
// when traced, with a short grace for the target's abort-path trailer: the
// client is waiting on the error response.
func (s *Server) recvTraceShipment(st *stream, sp *telemetry.Span, migErr error) error {
	if migErr != nil {
		if sp == nil {
			return migErr // telemetry dark: nothing to merge into
		}
		_ = st.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	} else {
		st.armRead()
	}
	var ship hostproto.TraceShipment
	if err := hostproto.Read(st.br, &ship); err != nil {
		return err
	}
	s.tr.Adopt(ship.Trace)
	return nil
}

// handleMigrateIn accepts an inbound migration on st. It reports whether
// the connection may carry the next command: only a migration that
// committed and shipped its trailer leaves the stream aligned.
func (s *Server) handleMigrateIn(st *stream, cmd hostproto.Command) bool {
	s.met.Counter("host.ops." + string(cmd.Op)).Inc()
	s.inflightIn.Add(1)
	defer s.inflightIn.Add(-1)
	ctx := traceContext(cmd)
	sp := s.tr.BeginRemote("host.migratein", ctx, telemetry.String("enclave", cmd.ID))
	if !st.keyed {
		var peer hostproto.MachineKey
		if err := st.read(&peer); err != nil {
			sp.Fail(err)
			return false
		}
		s.service.RegisterMachine(peer.Key)
		if err := st.write(hostproto.MachineKey{Key: s.machine.AttestationPublic()}); err != nil {
			sp.Fail(err)
			return false
		}
		st.keyed = true
	}
	opts := &core.Options{Service: s.service, Trace: sp, Metrics: s.met,
		Journal: s.journal, EnclaveID: cmd.ID}
	inc, err := core.MigrateIn(s.host, s.registry, st, opts)
	if err != nil {
		sp.Fail(err)
		_ = s.shipTrace(st, ctx)
		s.met.Counter("host.migrations.failed").Inc()
		log.Printf("inbound migration failed: %v", err)
		return false
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
	// Registered before the trailer goes out: the source reads the trailer
	// before it answers its client, so a successful OpMigrateOut is never
	// followed by an OpStats that misses the new session.
	s.sessions.Add(id, inc.Runtime)
	sp.End()
	shipped := s.shipTrace(st, ctx)
	log.Printf("accepted migration of %s as %s (restore=%v verify=%v)", cmd.ID, id, inc.RestoreTime, inc.VerifyTime)
	return shipped == nil
}

// shipTrace sends this host's finished spans for the migration's trace
// back to the source. Always sent — empty when untraced or telemetry is
// dark — so the source reads exactly one trailer message. A send error
// only ends the connection: the migration already committed or aborted.
func (s *Server) shipTrace(st *stream, ctx telemetry.Context) error {
	var ship hostproto.TraceShipment
	if s.tr != nil && !ctx.TraceID.IsZero() {
		ship.Trace = s.tr.ExportTrace(ctx.TraceID)
		ship.Trace.Proc = "sgxhost " + s.name
	}
	return st.write(ship)
}
