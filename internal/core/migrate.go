package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/enclave"
	"repro/internal/ledger"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/telemetry"
)

// Migration errors.
var (
	ErrAborted      = errors.New("core: migration aborted by peer")
	ErrUnknownImage = errors.New("core: target has no deployment for the requested image")
	ErrNotQuiescent = errors.New("core: enclave never reached a quiescent point")
	ErrProtocol     = errors.New("core: migration protocol violation")
)

// Deployment bundles everything a machine needs to (re)build an enclave
// image: the application and its public SIGSTRUCT. It is distributed to all
// machines that may host the enclave.
type Deployment struct {
	App *enclave.App
	Sig sgx.SigStruct
}

// NewDeployment prepares a deployment for an owner-configured app.
func NewDeployment(app *enclave.App, owner *Owner) *Deployment {
	return &Deployment{App: app, Sig: sgx.SignEnclave(owner.Signer(), enclave.MeasureApp(app))}
}

// Registry maps image names to deployments on a host.
type Registry struct {
	apps table[*Deployment]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers a deployment under its app name. A duplicate name is
// replaced atomically: a concurrent Lookup observes either the old or the
// new deployment in full, never a mix.
func (r *Registry) Add(d *Deployment) {
	r.apps.set(d.App.Name, d)
}

// Lookup finds a deployment by image name. The returned pointer is a
// stable snapshot: a later Add of the same name swaps the registry slot
// to a different *Deployment and never mutates one already handed out.
func (r *Registry) Lookup(name string) (*Deployment, bool) {
	return r.apps.get(name)
}

// Remove deletes a deployment by image name, reporting whether it was
// registered. In-flight migrations that already resolved the deployment
// keep their snapshot.
func (r *Registry) Remove(name string) bool {
	return r.apps.delete(name)
}

// Len counts registered deployments.
func (r *Registry) Len() int {
	return r.apps.length()
}

// Options configures a migration.
type Options struct {
	// Service is the attestation service used by the source to attest the
	// target (relayed by the untrusted host, verified inside the enclave).
	Service *attest.Service
	// Cipher selects the checkpoint cipher (default AES-GCM).
	Cipher tcb.CheckpointCipher
	// PollInterval is the quiescent-point polling period.
	PollInterval time.Duration
	// PollBudget bounds the wait for quiescence.
	PollBudget time.Duration
	// Agent, if set, is an established agent session on the target machine:
	// the source delivers Kmigrate to the agent ahead of time and the
	// target enclave fetches it by local attestation (Sec. VI-D).
	Agent *AgentSession
	// BuildOptions are applied when the target rebuilds the image (e.g.
	// backing its shared region with guest VM memory).
	BuildOptions []enclave.BuildOption
	// Trace, if set, is the parent span under which this migration's phase
	// spans (core.prepare, core.dump, core.channel, core.keyrelease,
	// core.target.*, core.restore) nest. Nil disables tracing at ~zero
	// cost; see internal/telemetry.
	Trace *telemetry.Span
	// Metrics, if set, receives migration counters (migrations started,
	// committed, aborted, checkpoint bytes). Nil disables.
	Metrics *telemetry.Metrics
	// Journal, if set, receives the structured protocol events — quiesce,
	// channel-up, self-destroy, key-release/receive, restore-finish, and
	// every abort with its cause. Nil disables; appends are allocation-free
	// so the emitters run unconditionally, abort paths included.
	Journal *telemetry.Journal
	// EnclaveID names the enclave in journal records. The host daemon sets
	// it to the session id (e.g. "counter-1") so journal lines match the
	// fleet's migration ids, and vmm.LiveMigrate to the guest process name;
	// empty falls back to the image name.
	EnclaveID string
}

// span returns the parent span, tolerating a nil receiver.
func (o *Options) span() *telemetry.Span {
	if o == nil {
		return nil
	}
	return o.Trace
}

// metrics returns the metrics registry, tolerating a nil receiver.
func (o *Options) metrics() *telemetry.Metrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// journal returns the event journal, tolerating a nil receiver.
func (o *Options) journal() *telemetry.Journal {
	if o == nil {
		return nil
	}
	return o.Journal
}

// channelMode names how the source delivers Kmigrate in spans and journal
// records: to the target enclave over an attested channel, or to the agent.
func (o *Options) channelMode() string {
	if o.Agent != nil {
		return "agent"
	}
	return "remote-attest"
}

// enclaveID resolves the journal name for rt: the host-assigned session id
// when set, else the enclave's image name.
func (o *Options) enclaveID(rt *enclave.Runtime) string {
	if o != nil && o.EnclaveID != "" {
		return o.EnclaveID
	}
	if rt == nil {
		return ""
	}
	return rt.App().Name
}

// journalAbort files one abort event carrying the failed phase and its
// cause. Nil-safe throughout and a no-op on success, so every phase can
// defer it unconditionally.
func journalAbort(o *Options, id, phase string, ctx telemetry.Context, err error) {
	if err == nil {
		return
	}
	o.journal().Append(telemetry.EventAbort, id, ctx,
		telemetry.String("phase", phase), telemetry.String("cause", err.Error()))
}

func (o *Options) pollInterval() time.Duration {
	if o.PollInterval == 0 {
		return 50 * time.Microsecond
	}
	return o.PollInterval
}

func (o *Options) pollBudget() time.Duration {
	if o.PollBudget == 0 {
		return 10 * time.Second
	}
	return o.PollBudget
}

// SourceReport carries source-side migration metrics.
type SourceReport struct {
	PrepareTime     time.Duration // phase 1: reach the quiescent point
	DumpTime        time.Duration // phase 2: in-enclave dump + encrypt
	ChannelTime     time.Duration // attestation + DH + key release
	TotalTime       time.Duration
	CheckpointBytes int
}

// imageBlob encodes MsgImage.
func imageBlob(name string, mr [32]byte, threads int) []byte {
	b := make([]byte, 0, len(name)+40)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(name)))
	b = append(b, n[:]...)
	b = append(b, name...)
	b = append(b, mr[:]...)
	binary.LittleEndian.PutUint32(n[:], uint32(threads))
	b = append(b, n[:]...)
	return b
}

// Adversarial-input bounds for MsgImage fields. The blob arrives from the
// untrusted network before any authentication, so its length prefixes must
// not be trusted: a huge name length must neither overflow the bounds
// arithmetic (4+n wraps in uint32) nor drive a giant allocation, and the
// thread count feeds layout sizing downstream.
const (
	maxImageNameLen = 1 << 10
	maxImageThreads = 1 << 12
)

func parseImageBlob(b []byte) (name string, mr [32]byte, threads int, err error) {
	if len(b) < 4 {
		return "", mr, 0, ErrProtocol
	}
	// Widen before doing arithmetic so a crafted n near MaxUint32 cannot
	// wrap the bounds check and send 4+n out of range of the slice.
	n := int64(binary.LittleEndian.Uint32(b))
	if n > maxImageNameLen || int64(len(b)) < 4+n+32+4 {
		return "", mr, 0, ErrProtocol
	}
	name = string(b[4 : 4+n])
	copy(mr[:], b[4+n:])
	t := binary.LittleEndian.Uint32(b[4+n+32:])
	if t > maxImageThreads {
		return "", mr, 0, ErrProtocol
	}
	return name, mr, int(t), nil
}

// Prepare drives the source enclave to its quiescent point (two-phase
// checkpointing phase 1) and returns how long it took. Exposed separately
// so the VM migration engine can overlap it with pre-copy.
//
// On failure Prepare leaves the enclave running normally: the started
// migration is cancelled in-enclave and the interrupted workers resume, so a
// caller that sees e.g. ErrNotQuiescent does not strand the enclave with the
// global flag raised and its workers parked forever.
func Prepare(src *enclave.Runtime, opts *Options) (_ time.Duration, err error) {
	sp := opts.span().Child("core.prepare", telemetry.String("enclave", src.App().Name))
	defer func() { sp.Fail(err) }()
	defer func() { journalAbort(opts, opts.enclaveID(src), "prepare", sp.Context(), err) }()
	start := time.Now()
	src.RequestMigration()
	if _, err := src.CtlCall(enclave.SelCtlMigrateBegin); err != nil {
		// The begin never took effect inside the enclave (state is still
		// stNormal); just drop the runtime-side migration mode.
		src.EndMigration()
		return 0, fmt.Errorf("core: migrate begin: %w", err)
	}
	if err := awaitQuiescence(src, opts); err != nil {
		if cErr := Cancel(src); cErr != nil {
			err = errors.Join(err, cErr)
		}
		return 0, err
	}
	opts.journal().Append(telemetry.EventQuiesce, opts.enclaveID(src), sp.Context(),
		telemetry.Duration("took", time.Since(start)))
	return time.Since(start), nil
}

// awaitQuiescence polls src's control thread until every worker has
// reached a safe state, kicking the stragglers between polls, and returns
// ErrNotQuiescent once the poll budget is spent. It polls once before it
// looks at the budget. An ecall that passed the entry gate before the
// migration was requested but has not run its first step is invisible to
// the poll, so the enclave counts as quiescent only when none was pending
// before the poll.
func awaitQuiescence(src *enclave.Runtime, opts *Options) error {
	deadline := time.Now().Add(opts.pollBudget())
	for {
		pending := src.EntryPending()
		res, err := src.CtlCall(enclave.SelCtlMigratePoll)
		if err != nil {
			return fmt.Errorf("core: migrate poll: %w", err)
		}
		if res[0] == 1 && !pending {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrNotQuiescent
		}
		src.InterruptWorkers()
		time.Sleep(opts.pollInterval())
	}
}

// Dump produces the encrypted checkpoint blob from a prepared source
// enclave (two-phase checkpointing phase 2), collecting it from the shared
// window while the enclave is still sealing it. A worker that entered after
// the quiescent point makes the enclave refuse the dump before its final
// record (DESIGN.md §3); the caller cancels, as after any failed dump.
func Dump(src *enclave.Runtime, opts *Options) ([]byte, time.Duration, error) {
	return dumpBytes(src, enclave.SelCtlMigrateDump, opts)
}

// dumpBytes runs dump selector sel on a prepared src and collects the
// checkpoint from the shared window into one slice while the enclave is
// still sealing it.
func dumpBytes(src *enclave.Runtime, sel uint64, opts *Options) ([]byte, time.Duration, error) {
	var blob []byte
	_, took, err := dump(src, src.Shared(), sel, opts, func(total int) error {
		blob = make([]byte, total)
		return nil
	}, func(off, end int) error {
		return src.Shared().Load(enclave.SharedCkptOff+uint64(off), blob[off:end])
	})
	if err != nil {
		return nil, 0, err
	}
	return blob, took, nil
}

// dumpTo is Dump streamed into t: the enclave seals its checkpoint into the
// frames of a frameWindow, MsgCheckpoint announces them as soon as the
// enclave has published the checkpoint's length, and each frame leaves,
// uncopied, as soon as the leaves under it are sealed, so the transfer runs
// under the dump: core.wire spans core.dump. It returns the checkpoint's
// length.
func dumpTo(src *enclave.Runtime, t Transport, opts *Options) (n int, took time.Duration, err error) {
	wire := opts.span().Child("core.wire")
	defer func() {
		wire.Annotate(telemetry.Int("checkpoint_bytes", n))
		wire.Fail(err)
	}()
	win := newFrameWindow(src.Shared(), enclave.MaxCheckpointSize(src.Layout()))
	defer win.release()
	return dump(src, win, enclave.SelCtlMigrateDump, opts, func(total int) error {
		return t.Send(Message{Kind: MsgCheckpoint, Frames: bulkFrames(total)})
	}, func(off, end int) error {
		return win.send(t, off, end)
	})
}

// dump runs dump selector sel (the migration's or the owner's) into mem
// under a core.dump span, passing the checkpoint on as streamDump does, and
// counts its bytes.
func dump(src *enclave.Runtime, mem sgx.OutsideMemory, sel uint64, opts *Options, begin func(total int) error, chunk func(off, end int) error) (n int, _ time.Duration, err error) {
	sp := opts.span().Child("core.dump", telemetry.String("enclave", src.App().Name))
	defer func() { sp.Fail(err) }()
	start := time.Now()
	n, err = streamDump(src, mem, sel, begin, chunk)
	if err != nil {
		return 0, 0, fmt.Errorf("core: dump: %w", err)
	}
	sp.Annotate(telemetry.Int("checkpoint_bytes", n))
	opts.metrics().Counter("core.checkpoint.bytes").Add(int64(n))
	return n, time.Since(start), nil
}

// streamDump runs dump selector sel on src with mem as its untrusted memory
// and passes the checkpoint on while the enclave is still producing it. The
// enclave publishes the checkpoint's length first (enclave.SharedDumpLen)
// and then, as each leaf is sealed and copied out, how much of the window is
// final (enclave.SharedDumpReady); the runtime sees each store to that word
// as it happens, as a host thread polling the word would. begin receives the
// length; chunk receives each bulkSegment stretch [off, end) of the window
// once it is final, in order, the last one possibly short. A failing begin
// or chunk stops the passing on, not the dump, which runs to its end first.
// It returns the length.
func streamDump(src *enclave.Runtime, mem sgx.OutsideMemory, sel uint64, begin func(total int) error, chunk func(off, end int) error) (int, error) {
	var ready atomic.Uint64
	wake := make(chan struct{}, 1)
	type result struct {
		n   uint64
		err error
	}
	done := make(chan result, 1)
	watched := watchedMemory{OutsideMemory: mem, off: enclave.SharedDumpReady, watch: func(v uint64) {
		ready.Store(v)
		select {
		case wake <- struct{}{}:
		default:
		}
	}}
	go func() {
		res, err := src.CtlCallOn(watched, sel, enclave.SharedCkptOff)
		done <- result{res[0], err}
	}()
	total, sent := 0, 0
	pass := func(upTo int) error {
		if total == 0 {
			var b [8]byte
			if err := mem.Load(enclave.SharedDumpLen, b[:]); err != nil {
				return err
			}
			n := binary.LittleEndian.Uint64(b[:])
			if n == 0 || n > uint64(enclave.MaxCheckpointSize(src.Layout())) {
				return fmt.Errorf("%w: dump announced a %d-byte checkpoint", ErrProtocol, n)
			}
			total = int(n)
			if err := begin(total); err != nil {
				return err
			}
		}
		for sent < total && (sent+bulkSegment <= upTo || upTo >= total) {
			end := min(sent+bulkSegment, total)
			if err := chunk(sent, end); err != nil {
				return err
			}
			sent = end
		}
		return nil
	}
	var passErr error
	for {
		select {
		case <-wake:
			if up := ready.Load(); passErr == nil && up > 0 {
				passErr = pass(int(up))
			}
		case r := <-done:
			if r.err != nil {
				return 0, r.err
			}
			if passErr == nil {
				passErr = pass(int(r.n))
			}
			if passErr == nil && (sent != total || r.n != uint64(total)) {
				passErr = fmt.Errorf("%w: dump of %d bytes announced %d", ErrProtocol, r.n, total)
			}
			return total, passErr
		}
	}
}

// Cancel aborts a started migration on the source: Kmigrate is wiped inside
// the enclave and the workers resume.
func Cancel(src *enclave.Runtime) error {
	defer src.EndMigration()
	if _, err := src.CtlCall(enclave.SelCtlSrcCancel); err != nil {
		return err
	}
	return nil
}

// MigrateOut runs the complete source side of an enclave migration over t.
// On success the source enclave has self-destroyed. On failure before key
// release the migration is cancelled and the enclave resumes.
//
// The image announcement goes out before the enclave is quiesced: it names
// only public data, and it lets the target build its virgin enclave (restore
// Step-1) while this side is still dumping. The target then holds EPC for a
// checkpoint that may never come, so a failed Prepare or Dump tells it.
func MigrateOut(src *enclave.Runtime, t Transport, opts *Options) (rep SourceReport, err error) {
	start := time.Now()
	defer func() { rep.TotalTime = time.Since(start) }()

	if opts.Cipher != 0 {
		if _, err = src.CtlCall(enclave.SelCtlSetCipher, uint64(opts.Cipher)); err != nil {
			return rep, fmt.Errorf("core: set cipher: %w", err)
		}
	}
	if err = sendImage(src, t); err != nil {
		return rep, err
	}

	// Phase 1+2: quiesce, and dump straight onto the wire.
	if rep.PrepareTime, err = Prepare(src, opts); err != nil {
		abort(t, "source never quiesced")
		return rep, err
	}
	if rep.CheckpointBytes, rep.DumpTime, err = dumpTo(src, t, opts); err != nil {
		abort(t, "source dump failed")
		if cErr := Cancel(src); cErr != nil {
			err = errors.Join(err, cErr)
		}
		return rep, err
	}
	ps, err := migrateOutChannel(src, t, opts, rep, start, nil)
	if err != nil {
		return rep, err
	}
	return ps.Release()
}

// sendImage tells the target what to build.
func sendImage(src *enclave.Runtime, t Transport) error {
	return t.Send(Message{Kind: MsgImage, Blob: imageBlob(src.App().Name, src.Measurement(), src.Layout().Threads)})
}

// MigrateOutPrepared runs the source side for an enclave whose checkpoint
// was already produced with Prepare+Dump (the VM live-migration engine dumps
// early so the blob rides the pre-copy stream).
func MigrateOutPrepared(src *enclave.Runtime, blob []byte, t Transport, opts *Options) (SourceReport, error) {
	start := time.Now()
	ps, err := MigrateOutChannel(src, blob, t, opts)
	if err != nil {
		return SourceReport{CheckpointBytes: len(blob), TotalTime: time.Since(start)}, err
	}
	return ps.Release()
}

// PreparedSource is the source half of a migration paused right before its
// commit point: image and checkpoint shipped, attested channel established,
// but Kmigrate NOT yet released — the enclave is alive and the migration
// still fully cancellable. The VM live-migration engine runs many channel
// setups concurrently, commits one enclave at a time with Commit inside its
// downtime window, and collects each target's acknowledgement with
// AwaitDone once that enclave has been rebuilt after the VM resumed; a
// single migration calls Release, which runs the two back to back.
type PreparedSource struct {
	src       *enclave.Runtime
	t         Transport
	opts      *Options
	rep       SourceReport
	start     time.Time
	chanStart time.Time
	open      atomic.Bool // counted in preparedSources until settled or cancelled
}

// preparedSources and preparedTargets count the prepared halves no one has
// settled, cancelled, rebuilt or aborted yet.
var (
	preparedSources = ledger.New("prepared-source")
	preparedTargets = ledger.New("prepared-target")
)

// MigrateOutChannel runs the source side for a prepared/dumped enclave up to
// (but excluding) key release. On failure the migration is cancelled and the
// enclave resumes.
func MigrateOutChannel(src *enclave.Runtime, blob []byte, t Transport, opts *Options) (*PreparedSource, error) {
	return migrateOutChannel(src, t, opts, SourceReport{CheckpointBytes: len(blob)}, time.Now(), func(sp *telemetry.Span) error {
		// The image announcement and the checkpoint go out back to back.
		wireSp := sp.Child("core.wire", telemetry.Int("checkpoint_bytes", len(blob)))
		err := sendImage(src, t)
		if err == nil {
			err = sendBulk(t, Message{Kind: MsgCheckpoint, Blob: blob})
		}
		wireSp.Fail(err)
		return err
	})
}

// migrateOutChannel runs the attested channel, after ship, if set, has sent
// the image and the held checkpoint (MigrateOut streams its checkpoint from
// the dump instead).
func migrateOutChannel(src *enclave.Runtime, t Transport, opts *Options, rep SourceReport, start time.Time, ship func(*telemetry.Span) error) (_ *PreparedSource, err error) {
	mode := opts.channelMode()
	sp := opts.span().Child("core.channel",
		telemetry.String("enclave", src.App().Name), telemetry.String("mode", mode))
	defer func() { sp.Fail(err) }()
	defer func() { journalAbort(opts, opts.enclaveID(src), "channel", sp.Context(), err) }()
	defer func() {
		if err != nil {
			if cErr := Cancel(src); cErr != nil {
				err = errors.Join(err, cErr)
			}
		}
	}()
	ps := &PreparedSource{src: src, t: t, opts: opts, rep: rep, start: start}
	if ship != nil {
		if err = ship(sp); err != nil {
			return nil, err
		}
	}

	ps.chanStart = time.Now()
	if opts.Agent == nil {
		// Remote attestation of the target enclave by the source enclave.
		var hello Message
		if hello, err = recvKind(t, MsgHello); err != nil {
			return nil, err
		}
		var channelOut []byte
		if channelOut, err = sourceChannel(src, opts.Service, hello.Blob); err != nil {
			return nil, err
		}
		if err = t.Send(Message{Kind: MsgChannel, Blob: channelOut}); err != nil {
			return nil, err
		}
		if _, err = recvKind(t, MsgChannelOK); err != nil {
			return nil, err
		}
	}
	// Agent mode (Sec. VI-D): the channel to the agent was (or can be)
	// built ahead of time; there is nothing to set up here.
	opts.journal().Append(telemetry.EventChannelUp, opts.enclaveID(src), sp.Context(),
		telemetry.String("mode", mode))
	preparedSources.Take(&ps.open)
	return ps, nil
}

// Release is Commit followed by AwaitDone: the whole source side from the
// commit point to the target's acknowledgement.
func (ps *PreparedSource) Release() (SourceReport, error) {
	if err := ps.Commit(); err != nil {
		return ps.rep, err
	}
	return ps.AwaitDone()
}

// Commit is the migration's commit point: the source enclave self-destroys
// and Kmigrate goes out (strictly in that order, Sec. V-B). A failure before
// the in-enclave release cancels the migration and the enclave resumes;
// afterwards the instance is gone either way (the paper accepts the loss,
// never a fork). After a successful Commit, AwaitDone hears the outcome.
func (ps *PreparedSource) Commit() (err error) {
	src, t, opts := ps.src, ps.t, ps.opts
	sp := opts.span().Child("core.keyrelease", telemetry.String("enclave", src.App().Name))
	released := false
	defer func() {
		if err == nil {
			sp.End()
			return
		}
		if !released {
			if cErr := Cancel(src); cErr != nil {
				err = errors.Join(err, cErr)
			}
		}
		ps.rep.TotalTime = time.Since(ps.start)
		ps.settle(sp, err)
	}()

	if opts.Agent != nil {
		// The key goes to the agent on the target machine, over the
		// channel built ahead of time unless it has not been.
		if err = opts.Agent.PreEstablish(src, opts); err != nil {
			return err
		}
	}
	// Self-destroy, then release Kmigrate (strictly last, Sec. V-B).
	var sealedKey []byte
	sealedKey, released, err = ReleaseKey(src)
	if released {
		opts.journal().Append(telemetry.EventSelfDestroy, opts.enclaveID(src), sp.Context(),
			telemetry.String("mode", opts.channelMode()))
	}
	if err != nil {
		return err
	}
	keyMsg := Message{Kind: MsgKey, Blob: sealedKey}
	if opts.Agent != nil {
		sealedKey = append(append([]byte{}, opts.Agent.channelOut...), sealedKey...)
		if err = opts.Agent.InstallKey(sealedKey); err != nil {
			return fmt.Errorf("core: agent install key: %w", err)
		}
		// The target fetches the key locally; MsgKey only signals that it
		// is in place.
		keyMsg.Blob = nil
	}
	if err = t.Send(keyMsg); err != nil {
		return err
	}
	// MsgKey is sent: the key is out, the commit is irrevocable. This is
	// the audit record the fleet matches one-to-one against completed
	// migrations.
	opts.journal().Append(telemetry.EventKeyRelease, opts.enclaveID(src), sp.Context(),
		telemetry.Int("sealed_bytes", len(sealedKey)))
	ps.rep.ChannelTime = time.Since(ps.chanStart)
	return nil
}

// AwaitDone waits, after a successful Commit, for the target's MsgDone: the
// enclave has been restored and verified there. A failure means the
// instance is lost; the source has self-destroyed either way.
func (ps *PreparedSource) AwaitDone() (_ SourceReport, err error) {
	sp := ps.opts.span().Child("core.awaitdone", telemetry.String("enclave", ps.src.App().Name))
	defer func() {
		ps.rep.TotalTime = time.Since(ps.start)
		ps.settle(sp, err)
	}()
	if _, err = recvKind(ps.t, MsgDone); err != nil {
		return ps.rep, err
	}
	ps.src.EndMigration()
	return ps.rep, nil
}

// settle ends sp and files the migration's outcome: the abort record on
// failure and the committed or aborted count.
func (ps *PreparedSource) settle(sp *telemetry.Span, err error) {
	preparedSources.Give(&ps.open)
	sp.Fail(err)
	journalAbort(ps.opts, ps.opts.enclaveID(ps.src), "release", sp.Context(), err)
	m := ps.opts.metrics()
	if err != nil {
		m.Counter("core.migrations.aborted").Inc()
	} else {
		m.Counter("core.migrations.committed").Inc()
	}
}

// Cancel aborts a prepared source migration before its commit point: the
// peer is notified, the in-enclave migration state is wiped and the workers
// resume.
func (ps *PreparedSource) Cancel(reason string) error {
	preparedSources.Give(&ps.open)
	abort(ps.t, reason)
	return Cancel(ps.src)
}

// sourceChannel feeds the target's hello through the source control thread:
// quote verification via the attestation service (the untrusted host relays
// to the service; the enclave checks the verdict) and the signed DH
// response.
func sourceChannel(src *enclave.Runtime, service *attest.Service, hello []byte) ([]byte, error) {
	if service == nil {
		return nil, fmt.Errorf("core: no attestation service configured")
	}
	if len(hello) < enclave.QuoteWireSize+64 {
		return nil, ErrProtocol
	}
	quote, err := enclave.UnmarshalQuote(hello[:enclave.QuoteWireSize])
	if err != nil {
		return nil, err
	}
	dhNonce := hello[enclave.QuoteWireSize:] // dhpub(32) || nonce(32)
	// The untrusted host relays the quote to the attestation service; the
	// enclave judges the verdict against its embedded service key.
	verdict, err := service.Attest(quote)
	if err != nil {
		return nil, fmt.Errorf("core: attestation service: %w", err)
	}
	in := append(enclave.MarshalQuote(quote), enclave.MarshalVerdict(verdict)...)
	in = append(in, dhNonce[:64]...)
	if err := src.WriteShared(enclave.SharedReqOff, in); err != nil {
		return nil, err
	}
	res, err := src.CtlCall(enclave.SelCtlSrcChannel, enclave.SharedReqOff, uint64(len(in)))
	if err != nil {
		return nil, fmt.Errorf("core: source channel: %w", err)
	}
	// Output lands where the input was; read srcpub||sig.
	return src.ReadShared(enclave.SharedReqOff, res[0])
}

// bulkSegment is the FrameBlob segment size for announced bulk payloads.
const bulkSegment = 256 << 10

// bulkFrames is how many FrameBlob segments carry an n-byte payload.
func bulkFrames(n int) uint32 { return uint32((n + bulkSegment - 1) / bulkSegment) }

// sendBulk ships m over t with its payload outside the control frame: Blob
// follows the small announcing message as Message.Frames FrameBlob
// segments, so a control frame stays under maxCtlBlob whatever it announces.
func sendBulk(t Transport, m Message) error {
	blob := m.Blob
	m.Blob = nil
	m.Frames = bulkFrames(len(blob))
	if err := t.Send(m); err != nil {
		return err
	}
	for off := 0; off < len(blob); off += bulkSegment {
		end := min(off+bulkSegment, len(blob))
		if err := t.SendFrame(&PageFrame{Kind: FrameBlob, Data: blob[off:end]}); err != nil {
			return err
		}
	}
	return nil
}

func recvKind(t Transport, want MsgKind) (Message, error) {
	m, err := t.Recv()
	if err != nil {
		return Message{}, err
	}
	if m.Kind == MsgAbort {
		return Message{}, fmt.Errorf("%w: %s", ErrAborted, string(m.Blob))
	}
	if m.Kind != want {
		return Message{}, fmt.Errorf("%w: expected message %d, got %d", ErrProtocol, want, m.Kind)
	}
	return m, nil
}

// WorkerResult is the completion of a migrated in-flight ecall on the
// target.
type WorkerResult struct {
	Worker int
	Regs   [sgx.NumRegs]uint64
	Err    error
}

// Incoming is the target side's result: the live restored enclave plus a
// channel delivering the completions of the ecalls that were in flight at
// migration time.
type Incoming struct {
	Runtime *enclave.Runtime
	Header  enclave.CheckpointHeader
	Results <-chan WorkerResult

	RestoreTime time.Duration
	VerifyTime  time.Duration
}

// MigrateIn runs the complete target side of an enclave migration over t,
// building the virgin enclave from the local registry. On any failure the
// partially built target enclave is destroyed, so an aborted migration never
// leaks EPC. A failed MigrateIn leaves t open, and the source may still be
// streaming its checkpoint into it: the caller closes t then, or a source
// whose checkpoint outgrows the transport's buffer blocks on it for good,
// its enclave still quiesced.
func MigrateIn(host *enclave.Host, reg *Registry, t Transport, opts *Options) (*Incoming, error) {
	pt, err := MigrateInPrepare(host, reg, t, opts)
	if err != nil {
		return nil, err
	}
	return pt.Finish()
}

// PreparedTarget is a target-side enclave that has completed the build and
// attested-channel phases of MigrateIn but not the key delivery or the
// serial restore (mirror of PreparedSource). The VM live-migration engine
// prepares many enclaves concurrently, during pre-copy (the Fig. 8 channel
// setups are independent), calls InstallKey on each in turn inside its
// downtime window, and Rebuild on each in turn after the VM resumed,
// keeping the rebuild serial as in the paper; a single migration calls
// Finish, which runs the two back to back.
type PreparedTarget struct {
	rt   *enclave.Runtime
	win  *frameWindow // the received checkpoint's frames, released by Finish or Abort
	hdr  enclave.CheckpointHeader
	n    int // checkpoint bytes in win
	t    Transport
	opts *Options
	open atomic.Bool // counted in preparedTargets until rebuilt or aborted
}

// Runtime exposes the built (not yet restored) target enclave.
func (pt *PreparedTarget) Runtime() *enclave.Runtime { return pt.rt }

// MigrateInPrepare runs the target side of a migration up to (but excluding)
// the key delivery and restore: receive the image announcement, build the
// virgin enclave and send its hello — the source may still be quiescing and
// dumping, which both overlap —, then receive and check the checkpoint and
// finish the attested channel. Every error path after the build tells the
// peer and destroys the enclave.
func MigrateInPrepare(host *enclave.Host, reg *Registry, t Transport, opts *Options) (_ *PreparedTarget, err error) {
	sp := opts.span().Child("core.target.prepare")
	defer func() { sp.Fail(err) }()
	defer func() { journalAbort(opts, opts.enclaveID(nil), "target-prepare", sp.Context(), err) }()
	imgMsg, err := recvKind(t, MsgImage)
	if err != nil {
		return nil, err
	}
	name, wantMR, _, err := parseImageBlob(imgMsg.Blob)
	if err != nil {
		abort(t, "malformed image message")
		return nil, err
	}
	sp.Annotate(telemetry.String("enclave", name))
	dep, ok := reg.Lookup(name)
	if !ok {
		abort(t, "unknown image")
		return nil, ErrUnknownImage
	}
	if dep.Sig.Measurement != wantMR {
		abort(t, "measurement mismatch")
		return nil, ErrUnknownImage
	}

	// Step-1: create and initialise a virgin enclave from the same image.
	// It needs nothing but the public image, so it does not wait for the
	// checkpoint. From here on, every failure must free the EPC this build
	// consumed.
	buildSp := sp.Child("core.target.build")
	rt, err := enclave.BuildSigned(host, dep.App, dep.Sig, opts.BuildOptions...)
	buildSp.Fail(err)
	if err != nil {
		abort(t, "build failed")
		return nil, err
	}

	if opts.Agent == nil {
		// Step-2 starts now: the hello needs only the virgin enclave, and
		// the source reads it once its checkpoint is out.
		if err := sendHello(rt, t); err != nil {
			abort(t, "channel failed")
			_ = rt.Destroy()
			return nil, err
		}
	}

	win, hdr, n, err := recvCheckpoint(t, rt, wantMR)
	if err != nil {
		_ = rt.Destroy()
		return nil, err
	}

	if opts.Agent == nil {
		// Step-2 ends: be attested by the source (the key arrives in Finish).
		if err := targetChannel(rt, t); err != nil {
			abort(t, "channel failed")
			win.release()
			_ = rt.Destroy()
			return nil, err
		}
	}
	opts.journal().Append(telemetry.EventChannelUp, opts.enclaveID(rt), sp.Context(),
		telemetry.String("side", "target"))
	pt := &PreparedTarget{rt: rt, win: win, hdr: hdr, n: n, t: t, opts: opts}
	preparedTargets.Take(&pt.open)
	return pt, nil
}

// recvCheckpoint receives the checkpoint for rt, the virgin enclave built
// from the announced image, as the frames of a window over rt's shared
// region (recvWindow), and checks that its header parses and names the
// announced measurement. It returns the window, the header and the
// checkpoint's length; on failure it has released the window. The peer is
// told of every failure that is not its own abort.
func recvCheckpoint(t Transport, rt *enclave.Runtime, wantMR [32]byte) (win *frameWindow, hdr enclave.CheckpointHeader, n int, err error) {
	// The image is known, so the largest checkpoint its enclave can produce
	// bounds what the peer may announce.
	layout := rt.Layout()
	if win, n, err = recvWindow(t, rt.Shared(), enclave.MaxCheckpointSize(layout)); err != nil {
		if !errors.Is(err, ErrAborted) {
			abort(t, "checkpoint not received")
		}
		return nil, hdr, 0, err
	}
	head := make([]byte, min(n, enclave.HeaderWireSize(layout.Threads)))
	err = win.Load(enclave.SharedCkptOff, head)
	if err == nil {
		hdr, _, err = enclave.UnmarshalHeader(head)
	}
	if err == nil && hdr.Measurement != wantMR {
		abort(t, "checkpoint for a different image")
		win.release()
		return nil, hdr, 0, ErrProtocol
	}
	if err != nil {
		abort(t, "bad checkpoint header")
		win.release()
		return nil, hdr, 0, err
	}
	return win, hdr, n, nil
}

// Finish is InstallKey followed by Rebuild: the whole target side from the
// key delivery to the acknowledgement.
func (pt *PreparedTarget) Finish() (*Incoming, error) {
	if err := pt.InstallKey(); err != nil {
		return nil, err
	}
	return pt.Rebuild()
}

// InstallKey receives Kmigrate and installs it in the target enclave. On
// failure the target enclave is destroyed; on success Rebuild (or Abort)
// must follow.
func (pt *PreparedTarget) InstallKey() (err error) {
	sp := pt.opts.span().Child("core.target.key",
		telemetry.String("enclave", pt.rt.App().Name))
	defer func() { sp.Fail(err) }()
	defer func() {
		if err != nil {
			journalAbort(pt.opts, pt.opts.enclaveID(pt.rt), "target-finish", sp.Context(), err)
			pt.win.release()
			_ = pt.rt.Destroy()
			preparedTargets.Give(&pt.open)
		}
	}()
	if pt.opts.Agent != nil {
		// MsgKey signals that the source released Kmigrate to the agent;
		// fetch it by local attestation.
		if _, err := recvKind(pt.t, MsgKey); err != nil {
			return err
		}
		if err := targetKeyFromAgent(pt.rt, pt.opts.Agent); err != nil {
			abort(pt.t, "agent key fetch failed")
			return err
		}
	} else {
		keyMsg, err := recvKind(pt.t, MsgKey)
		if err != nil {
			return err
		}
		if err := writeAndCall(pt.rt, enclave.SelCtlTgtKey, keyMsg.Blob); err != nil {
			abort(pt.t, "key install failed")
			return err
		}
	}
	// Kmigrate is installed on the target — the receive-side twin of the
	// source's key-release audit record.
	pt.opts.journal().Append(telemetry.EventKeyReceive, pt.opts.enclaveID(pt.rt), sp.Context())
	return nil
}

// Rebuild performs restore Steps 3-4 on a target holding Kmigrate (CSSA
// rebuild, memory restore, re-entry, in-enclave verification) and
// acknowledges the source with MsgDone. On failure the target enclave is
// destroyed: past InstallKey the source has self-destroyed, so the instance
// is lost.
func (pt *PreparedTarget) Rebuild() (_ *Incoming, err error) {
	sp := pt.opts.span().Child("core.target.finish",
		telemetry.String("enclave", pt.rt.App().Name))
	defer func() { sp.Fail(err) }()
	defer preparedTargets.Give(&pt.open)
	defer pt.win.release()
	defer func() { journalAbort(pt.opts, pt.opts.enclaveID(pt.rt), "target-finish", sp.Context(), err) }()
	fail := func(err error) (*Incoming, error) {
		// Destroying also unblocks any ResumeWorker goroutines parked in the
		// spin region; their results land in the buffered channel.
		_ = pt.rt.Destroy()
		return nil, err
	}
	inc, err := restore(pt.rt, pt.win, pt.hdr, pt.n, false, pt.opts)
	if err != nil {
		abort(pt.t, "restore failed")
		return fail(err)
	}
	if err := pt.t.Send(Message{Kind: MsgDone}); err != nil {
		return fail(err)
	}
	return inc, nil
}

// Abort tears the prepared target down without restoring: the peer is told
// and the built enclave's EPC is returned. Used when a sibling enclave in the
// same VM migration fails and the whole migration is rolled back.
func (pt *PreparedTarget) Abort(reason string) {
	abort(pt.t, reason)
	pt.win.release()
	_ = pt.rt.Destroy()
	preparedTargets.Give(&pt.open)
}

// sendHello sends the target's hello: its attested DH half and nonce.
func sendHello(rt *enclave.Runtime, t Transport) error {
	hello, err := TargetHello(rt)
	if err != nil {
		return err
	}
	return t.Send(Message{Kind: MsgHello, Blob: hello})
}

// targetChannel installs the source's answer to the target's hello.
func targetChannel(rt *enclave.Runtime, t Transport) error {
	chanMsg, err := recvKind(t, MsgChannel)
	if err != nil {
		return err
	}
	if err := writeAndCall(rt, enclave.SelCtlTgtChannel, chanMsg.Blob); err != nil {
		return err
	}
	return t.Send(Message{Kind: MsgChannelOK})
}

// writeAndCall stores a blob in the shared request area and invokes a
// control selector on it.
func writeAndCall(rt *enclave.Runtime, sel uint64, blob []byte, extra ...uint64) error {
	if err := rt.WriteShared(enclave.SharedReqOff, blob); err != nil {
		return err
	}
	args := append([]uint64{enclave.SharedReqOff, uint64(len(blob))}, extra...)
	_, err := rt.CtlCall(sel, args...)
	return err
}

// Restore performs restore Steps 3-4 on a target enclave that already holds
// the checkpoint key and has the n-byte checkpoint staged in its shared
// region's checkpoint window at enclave.SharedCkptOff: rebuild CSSA,
// restore memory, re-enter handlers, and have the enclave verify the
// rebuilt CSSA values before going live. The verification wait honors
// opts.PollBudget/PollInterval (nil opts = the defaults). Restore leaves
// teardown to its caller: a refused restore on a freshly built target must
// be followed by Destroy (MigrateIn does this), while a refused rollback
// attempt on a live enclave must leave it running.
func Restore(rt *enclave.Runtime, hdr enclave.CheckpointHeader, n int, opts *Options) (*Incoming, error) {
	return restore(rt, rt.Shared(), hdr, n, false, opts)
}

// restore is Restore with the checkpoint read from mem — rt's shared region,
// or the frames a migration received it in; ownerKeyed selects the Sec. V-C
// checkpoint, opened under the owner's Kencrypt instead of Kmigrate.
func restore(rt *enclave.Runtime, mem sgx.OutsideMemory, hdr enclave.CheckpointHeader, n int, ownerKeyed bool, opts *Options) (_ *Incoming, err error) {
	if opts == nil {
		opts = &Options{}
	}
	sp := opts.span().Child("core.restore",
		telemetry.String("enclave", rt.App().Name), telemetry.Int("checkpoint_bytes", n))
	defer func() { sp.Fail(err) }()
	defer func() { journalAbort(opts, opts.enclaveID(rt), "restore", sp.Context(), err) }()
	restoreStart := time.Now()
	// Step-3a: the untrusted runtime rebuilds CSSA by forced AEX cycles.
	if err := rt.RebuildCSSA(hdr.MigK); err != nil {
		return nil, err
	}
	// Step-3b: the control thread restores all memory from the checkpoint,
	// reading mem in place (it takes its own copy before checking).
	ownerFlag := uint64(0)
	if ownerKeyed {
		ownerFlag = 1
	}
	if _, err := rt.CtlCallOn(mem, enclave.SelCtlTgtRestore, enclave.SharedCkptOff, uint64(n), ownerFlag); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	restoreTime := time.Since(restoreStart)

	// Step-4: re-attach workers (they park in the spin region, recording
	// fresh CSSAEENTER values) and let the enclave verify before resuming.
	verifyStart := time.Now()
	results := make(chan WorkerResult, rt.Layout().Threads)
	var wg sync.WaitGroup
	live := 0
	for tid := 1; tid < rt.Layout().Threads && tid < len(hdr.MigK); tid++ {
		if hdr.MigK[tid] == 0 {
			continue
		}
		live++
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			regs, err := rt.ResumeWorker(worker)
			results <- WorkerResult{Worker: worker, Regs: regs, Err: err}
		}(tid - 1)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// The verify call fails with errVerifyCSSA until every handler has
	// actually parked; poll within the configured budget, then treat
	// persistent failure as an attack (or a broken host) and refuse.
	deadline := time.Now().Add(opts.pollBudget())
	for {
		_, err := rt.CtlCall(enclave.SelCtlTgtVerify)
		if err == nil {
			break
		}
		var ee *enclave.EnclaveError
		if errors.As(err, &ee) && time.Now().Before(deadline) {
			time.Sleep(opts.pollInterval())
			continue
		}
		return nil, fmt.Errorf("%w: %v", enclave.ErrVerifyFailed, err)
	}
	verifyTime := time.Since(verifyStart)
	sp.Annotate(telemetry.Duration("restore", restoreTime), telemetry.Duration("verify", verifyTime))
	// Restore and in-enclave verification both passed: the instance is
	// live here. A Lost migration is precisely one whose journal has the
	// source's self-destroy but no matching restore-finish.
	opts.journal().Append(telemetry.EventRestoreFinish, opts.enclaveID(rt), sp.Context(),
		telemetry.Duration("restore", restoreTime), telemetry.Duration("verify", verifyTime))

	return &Incoming{
		Runtime:     rt,
		Header:      hdr,
		Results:     results,
		RestoreTime: restoreTime,
		VerifyTime:  verifyTime,
	}, nil
}

func abort(t Transport, reason string) {
	_ = t.Send(Message{Kind: MsgAbort, Blob: []byte(reason)})
}

// mustLookup is a test helper: Lookup that panics on a missing image.
func (r *Registry) mustLookup(name string) *Deployment {
	d, ok := r.Lookup(name)
	if !ok {
		panic("core: no deployment " + name)
	}
	return d
}
