package vmm

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/telemetry"
)

// TransportFactory lets a test interpose on the transports LiveMigrate
// creates internally (e.g. to wrap them in fault injectors). It receives a
// name and the two pipe halves and returns the (possibly wrapped) halves.
// For an enclave's control channel the name is the process name, src goes to
// the source enclave's MigrateOut and dst to the target guest OS; for the
// page stream the name is PageStreamName, src is the sending half and dst
// the half the target applies frames from.
type TransportFactory func(name string, src, dst core.Transport) (core.Transport, core.Transport)

// PageStreamName is the name a TransportFactory sees for the migration's
// page stream.
const PageStreamName = "vmm.pagestream"

// ErrEnclavesLost is what LiveMigrate's error wraps when the migration
// committed and the target VM runs, but some enclave's restore failed after
// the VM resumed: that enclave is gone on both sides (LostEnclaves).
var ErrEnclavesLost = errors.New("vmm: enclaves lost in their restore")

// LiveMigrationConfig parameterises a live VM migration.
type LiveMigrationConfig struct {
	// BandwidthBps is the simulated migration-link bandwidth in bytes per
	// second; 0 selects the default, 125 MB/s ≈ 1 Gbps.
	BandwidthBps float64
	// PaperSchedule restores the paper's serial Fig. 8 schedule: the
	// enclave dump completes before the bulk round starts, and the
	// per-enclave channel legs (image + checkpoint transfer, target build,
	// attestation, DH) run inside the downtime window, one enclave at a
	// time. By default the dump overlaps pre-copy and every leg is launched
	// the moment the dump lands (the checkpoint pages land in guest memory
	// and ride later rounds either way). Key release and the in-enclave
	// rebuild are not part of a leg and run the same on both schedules: key
	// release one enclave at a time inside the window, the rebuild one
	// enclave at a time after the VM resumed. Fig. 10 sets this to
	// reproduce the published serial timings.
	PaperSchedule bool
	// TransportFactory, if set, wraps each enclave's internal control pipe
	// and the page stream (tests inject transport faults through this).
	TransportFactory TransportFactory
	// Opts configures the per-enclave migrations (attestation service,
	// cipher, ...).
	Opts *core.Options
	// Tracer receives the migration's span tree (vmm.* phases plus the
	// core.* spans of each enclave's secure channel). When nil, LiveMigrate
	// still runs an internal tracer — the phase timings in
	// LiveMigrationStats are derived from its spans — it is just not
	// exported anywhere.
	Tracer *telemetry.Tracer
	// Metrics, if set, receives the per-page instruments (page-copy
	// latency, send-queue occupancy, round bytes, EPC frame gauges,
	// EENTER/ERESUME/AEX counts). Unlike Tracer there is no internal
	// default: the hot copy path stays uninstrumented when nil.
	Metrics *telemetry.Metrics
}

func (c *LiveMigrationConfig) bandwidth() float64 {
	if c.BandwidthBps == 0 {
		return 125e6
	}
	return c.BandwidthBps
}

// The pre-copy schedule. Constants, not LiveMigrationConfig fields: no
// caller, figure or benchmark needs another value, so these are the only
// ones that have ever run or been measured. The open ROADMAP item — stop on
// the measured dirty-rate ÷ bandwidth ratio — replaces the first two.
const (
	// maxRounds bounds the iterative pre-copy rounds, so a guest that
	// dirties pages faster than the link drains them still reaches
	// stop-and-copy (the benchmark's dirtying VM converges in 2).
	maxRounds = 4
	// dirtyThresholdPages ends pre-copy once the dirty set is one chunk's
	// worth: 256 KiB is ≈ 1 ms of a 250 MB/s link, a downtime stop-and-copy
	// can afford where another round's scan would not pay for itself.
	dirtyThresholdPages = 64
	// chunkPages is the transfer granularity — pages are copied, shipped
	// and applied in chunks of this many — and the granularity at which
	// GuestMemory backs its extents. 64 pages make a 256 KiB frame: the size
	// of core's bulk segments, and what the link clock's 1 ms credit covers
	// at 250 MB/s; as an extent it costs a sparse guest at most 63 zero pages
	// sent per page written, and a dense one 128 allocations per 32 MiB.
	chunkPages = 64
	// sendQueueChunks bounds the sender queue: at most this many chunks
	// (2 MiB) are collected ahead of the bandwidth-shaped link, so the link
	// does not wait on the dirty scan and memory in flight stays bounded.
	sendQueueChunks = 8
)

// LiveMigrationStats are the Fig. 10 metrics plus the pipeline accounting.
type LiveMigrationStats struct {
	TotalTime time.Duration
	// Downtime is the VM downtime of Fig. 10(c): the VM pause (the
	// vmm.downtime span — stop-and-copy, channel wait, key release) plus the
	// enclave dump time pre-copy did not hide. The enclaves' rebuild runs
	// after the VM resumed and is not part of it; EnclaveUnavailable is
	// what a client of an enclave sees.
	Downtime         time.Duration
	PreCopyRounds    int
	TransferredBytes int64
	EnclaveCount     int
	// EnclaveDumpTime is the Fig. 9(d) total dumping latency: guest
	// notification until every enclave is ready.
	EnclaveDumpTime time.Duration
	// KeyReleaseTime is the serial commit inside the window (the vmm.commit
	// span): per enclave, self-destroy and Kmigrate out on the source, key
	// install on the target.
	KeyReleaseTime time.Duration
	// EnclaveRestoreTime is the Fig. 10(a) serial restore latency on the
	// target (the vmm.restore span): per enclave, in-enclave restore and
	// verification, after the VM resumed.
	EnclaveRestoreTime time.Duration
	// EnclaveUnavailable is, per enclave process, how long the enclave
	// served no call: from its quiescent point on the source to the end of
	// its verified restore on the target. A lost enclave has no entry.
	EnclaveUnavailable map[string]time.Duration
	// LostEnclaves names the enclave processes whose restore failed after
	// the VM resumed: their source had self-destroyed, so the instance is
	// gone (the paper prefers that to a fork). The target VM runs the rest,
	// and LiveMigrate's error wraps ErrEnclavesLost.
	LostEnclaves []string
	// DumpPrecopyOverlap is how much of EnclaveDumpTime was hidden behind
	// concurrent pre-copy rounds (0 with PaperSchedule). Only the unhidden
	// remainder counts toward Downtime.
	DumpPrecopyOverlap time.Duration
	// ChannelWait is how long the downtime window waited on the per-enclave
	// channel legs: the tail pre-copy could not hide on the pipelined
	// schedule (0 when every leg finished before stop-and-copy), the legs in
	// full with PaperSchedule.
	ChannelWait time.Duration
	// RoundDirtyPages is the dirty-set size per round: index 0 is the bulk
	// round (the resident pages: GuestMemory.MarkResidentDirty), the rest the
	// iterative rounds including the residue sent right before stop-and-copy.
	RoundDirtyPages []int
	// Per-phase logical bytes: pages (or device-state payload) × their full
	// size, regardless of how the codec encoded them. BulkBytes +
	// PreCopyBytes + StopCopyBytes + EnclaveCtlBytes == TransferredBytes.
	BulkBytes       int64
	PreCopyBytes    int64
	StopCopyBytes   int64
	EnclaveCtlBytes int64
	// Wire accounting: bytes the framed codec actually put on the link per
	// phase, including frame headers. WireBytes is below TransferredBytes;
	// the gap is what delta encoding saved.
	WireBytes         int64
	BulkWireBytes     int64
	PreCopyWireBytes  int64
	StopCopyWireBytes int64
	// Frame mix of the page stream: how many raw-page and delta frames were
	// sent, and the payload bytes delta encoding saved vs raw pages.
	RawFrames       int64
	DeltaFrames     int64
	DeltaSavedBytes int64
}

// MaxEnclaveUnavailable is the longest any migrated enclave served no call
// (EnclaveUnavailable), 0 without enclaves.
func (s *LiveMigrationStats) MaxEnclaveUnavailable() time.Duration {
	var m time.Duration
	for _, d := range s.EnclaveUnavailable {
		m = max(m, d)
	}
	return m
}

// sendItem is one frame queued for transmission, with the per-phase
// accounting it belongs to (the counters are touched only by the sender
// goroutine, then read after drain) — or, with only flushed set, a barrier
// the sender closes when it gets there (see flush).
type sendItem struct {
	f       *core.PageFrame
	logical int64  // page payload bytes this frame represents
	logCtr  *int64 // per-phase logical byte counter
	wireCtr *int64 // per-phase wire byte counter
	flushed chan struct{}
}

// chunkSender is the transmit pipeline of the page stream: the collector
// side captures and encodes chunks into frames and enqueues them, a sender
// goroutine pushes the frames through a bandwidth-shaped core.Transport,
// and an applier goroutine on the "target" half of that pipe decodes and
// installs them into target memory. Collection thus overlaps transmission,
// and transmission overlaps application. FIFO order end to end guarantees
// that a page re-sent in a later round overwrites its earlier copy on the
// target — and that the target-side page content always matches the delta
// baseline the source memory gave the collector when it captured the page
// (GuestMemory.Capture): the memory itself while nothing has rewritten the
// page since it was shipped, the bytes saved by the first store after.
type chunkSender struct {
	src *GuestMemory     // the memory shipped; tracks baselines until drain
	ft  core.Transport   // source half of the shaped page stream
	bc  core.ByteCounter // the pipe under ft; wire bytes actually enqueued

	ch      chan sendItem
	wg      sync.WaitGroup // sender goroutine
	once    sync.Once      // guards drain
	applied chan struct{}  // closed when the applier goroutine exits

	sendErr  error // written by the sender goroutine; read after wg.Wait
	applyErr error // written by the applier goroutine; read after <-applied
	drainErr error // set inside drain's once
	// broken is raised with sendErr: the collector polls it at round
	// boundaries, so a dead stream fails the migration before the guest is
	// paused instead of at the drain. An apply error closes the stream and
	// surfaces here through the sender's next SendFrame.
	broken atomic.Bool

	// Frame-mix accounting, collector-only until drain.
	rawFrames   int64
	deltaFrames int64
	deltaSaved  int64

	// Instruments, nil when the migration runs without a metrics registry
	// (their methods are nil-safe, but copyHist gates a time.Now pair so
	// the uninstrumented copy path pays nothing).
	copyHist *telemetry.Histogram // page-copy latency, ns per chunk
	qGauge   *telemetry.Gauge     // queue occupancy after each enqueue/send
	sentCtr  *telemetry.Counter   // pages applied on the target
	wireCtr  *telemetry.Counter   // bytes on the wire, all phases
	hitRatio *telemetry.Ratio     // delta-frame pages / all pages sent
}

func newChunkSender(src, dst *GuestMemory, cfg *LiveMigrationConfig, met *telemetry.Metrics) *chunkSender {
	ft, rt := core.NewShapedPipe(0, cfg.bandwidth())
	bc := ft.(core.ByteCounter)
	if cfg.TransportFactory != nil {
		ft, rt = cfg.TransportFactory(PageStreamName, ft, rt)
	}
	s := &chunkSender{
		src:     src,
		ft:      ft,
		bc:      bc,
		ch:      make(chan sendItem, sendQueueChunks),
		applied: make(chan struct{}),
	}
	if met != nil {
		s.copyHist = met.Histogram("vmm.pagecopy.ns", pageCopyBounds)
		s.qGauge = met.Gauge("vmm.sendq.chunks")
		s.sentCtr = met.Counter("vmm.pages.sent")
		s.wireCtr = met.Counter("vmm.wire.bytes")
		s.hitRatio = met.Ratio("vmm.delta.hitrate")
	}
	s.wg.Add(1)
	go func() { // sender: frames through the shaped link
		defer s.wg.Done()
		for it := range s.ch {
			if it.flushed != nil {
				close(it.flushed)
				continue
			}
			if s.sendErr != nil {
				it.f.Release()
				continue
			}
			before := s.bc.BytesSent()
			if err := s.ft.SendFrame(it.f); err != nil {
				s.sendErr = err
				s.broken.Store(true)
				continue
			}
			wire := s.bc.BytesSent() - before
			*it.logCtr += it.logical
			*it.wireCtr += wire
			s.wireCtr.Add(wire)
			s.qGauge.Set(int64(len(s.ch)))
		}
	}()
	go func() { // applier: decode and install on the target half
		defer close(s.applied)
		for {
			f, err := rt.RecvFrame()
			if err != nil {
				// A closed stream is drain (or failure unwind), not an
				// apply error in its own right.
				if !errors.Is(err, core.ErrTransportClosed) {
					s.applyErr = err
				}
				return
			}
			done := f.Kind == core.FrameEnd
			aerr := applyFrame(dst, f, s.sentCtr)
			f.Release()
			if aerr != nil {
				s.applyErr = aerr
				_ = rt.Close() // unblock the sender
				return
			}
			if done {
				return
			}
		}
	}()
	return s
}

// applyFrame installs one received frame into target guest memory.
func applyFrame(dst *GuestMemory, f *core.PageFrame, pages *telemetry.Counter) error {
	if n := len(f.Pages); n > 0 && f.Pages[n-1] >= dst.Pages() {
		return fmt.Errorf("vmm: migrated page %d outside guest memory", f.Pages[n-1])
	}
	switch f.Kind {
	case core.FrameRaw:
		dst.ApplyPages(f.Pages, f.Data)
		pages.Add(int64(len(f.Pages)))
	case core.FrameDelta:
		if err := dst.ApplyPageDeltas(f.Pages, f.Sizes, f.Data); err != nil {
			return err
		}
		pages.Add(int64(len(f.Pages)))
	case core.FrameBlob:
		// Opaque device/system state: shipped for its transfer time,
		// nothing to install in the simulation.
	case core.FrameEnd:
		// Stream terminator; the caller stops on it.
	case core.FrameCtl:
		// RecvFrame refuses these; a transport that let one through is broken.
		return fmt.Errorf("vmm: control message %d in the page stream", f.Msg)
	}
	return nil
}

// pageCopyBounds buckets the per-chunk source copy latency (nanoseconds).
// Log-spaced so the p50/p90/p99 estimates in /metrics keep bounded
// relative error across the microsecond-to-millisecond tail.
var pageCopyBounds = telemetry.LogBounds(1000, 10_000_000) // 1µs .. 10ms

// roundBytesBounds buckets the per-round transfer volume (bytes).
var roundBytesBounds = telemetry.LogBounds(1<<16, 1<<28) // 64KiB .. 256MiB

// send captures the given source pages in chunks, encodes each into a
// delta frame for the pages that shrink and a raw frame for the rest, and
// enqueues them. It blocks only when the queue is full (the link is the
// bottleneck). ctx is the sending phase's trace context: each copy latency
// is recorded with it as a bucket exemplar, so a surprising p99 in
// vmm.pagecopy.ns points at a concrete bulk/pre-copy/stop-copy span to open.
func (s *chunkSender) send(pages []int, chunk int, logCtr, wireCtr *int64, ctx telemetry.Context) {
	base := make([][]byte, min(chunk, len(pages)))
	var held [][]byte
	for off := 0; off < len(pages); off += chunk {
		part := pages[off:min(off+chunk, len(pages))]
		data := core.GetBuf(len(part) * PageSize)
		pb := base[:len(part)]
		held = s.capture(part, data, pb, held[:0], ctx)
		raw, delta, saved := core.EncodePages(part, data, pb)
		for _, b := range held {
			core.PutBuf(b)
		}
		s.deltaSaved += saved
		if raw != nil {
			s.rawFrames++
			s.observePages(len(raw.Pages), false)
			s.enqueue(raw, int64(len(raw.Pages))*PageSize, logCtr, wireCtr)
		}
		if delta != nil {
			s.deltaFrames++
			s.observePages(len(delta.Pages), true)
			s.enqueue(delta, int64(len(delta.Pages))*PageSize, logCtr, wireCtr)
		}
	}
}

// capture copies the chunk's pages and their baselines out of source memory
// (GuestMemory.Capture), timing the copy when instrumented.
func (s *chunkSender) capture(part []int, dst []byte, base, held [][]byte, ctx telemetry.Context) [][]byte {
	if s.copyHist != nil {
		t0 := time.Now()
		held = s.src.Capture(part, dst, base, held)
		s.copyHist.ObserveExemplar(time.Since(t0).Nanoseconds(), ctx)
		return held
	}
	return s.src.Capture(part, dst, base, held)
}

func (s *chunkSender) enqueue(f *core.PageFrame, logical int64, logCtr, wireCtr *int64) {
	s.ch <- sendItem{f: f, logical: logical, logCtr: logCtr, wireCtr: wireCtr}
	s.qGauge.Set(int64(len(s.ch)))
}

// observePages files one delta-hit-rate observation per page of a frame.
func (s *chunkSender) observePages(n int, hit bool) {
	for i := 0; i < n; i++ {
		s.hitRatio.Observe(hit)
	}
}

// sendBlob ships n bytes of opaque state (device/system state) through the
// page stream as a FrameBlob, so it shares the link's shaping and wire
// accounting with the page frames.
func (s *chunkSender) sendBlob(n int, logCtr, wireCtr *int64) {
	s.enqueue(&core.PageFrame{Kind: core.FrameBlob, Data: make([]byte, n)}, int64(n), logCtr, wireCtr)
}

// flush waits until every frame enqueued so far has left through the
// shaped link (or been dropped behind a send error): the queue is empty and
// the link idle when it returns.
func (s *chunkSender) flush() {
	done := make(chan struct{})
	s.ch <- sendItem{flushed: done}
	<-done
}

// drain closes the queue, terminates the stream with a FrameEnd, and waits
// until every in-flight frame has crossed the link and landed in target
// memory. Nothing is captured after it, so the source memory drops its
// baselines. Idempotent: the failure path may drain after the stop-and-copy
// phase already has. Returns the first transmit or apply error.
func (s *chunkSender) drain() error {
	s.once.Do(func() {
		s.src.DropBaselines()
		close(s.ch)
		s.wg.Wait()
		if s.sendErr == nil {
			if err := s.ft.SendFrame(&core.PageFrame{Kind: core.FrameEnd}); err != nil {
				s.sendErr = err
			}
		}
		if s.sendErr != nil {
			// No terminator made it out; close the stream so an applier
			// parked on RecvFrame exits.
			_ = s.ft.Close()
		}
		<-s.applied
		_ = s.ft.Close()
		s.drainErr = s.sendErr
		if s.drainErr == nil {
			s.drainErr = s.applyErr
		}
	})
	return s.drainErr
}

// dumpResult carries PrepareAllEnclaves' outcome out of its goroutine,
// together with the channel legs launched the moment the blobs were there.
type dumpResult struct {
	blobs map[string][]byte
	legs  []*channelLeg
	took  time.Duration
	err   error
}

// channelLeg is one enclave's migration up to (but excluding) its commit:
// the source half runs core.MigrateOutChannel (image + checkpoint transfer,
// attestation, DH) and the target half the guest OS receive path up to the
// same point (shared window, build, attested channel). A finished leg holds
// a PreparedSource and an IncomingProcess, both still fully cancellable: no
// key has been released.
type channelLeg struct {
	p    *Process
	ts   core.Transport
	sp   *telemetry.Span // ends when the leg does, on its own track
	done chan struct{}   // closed once both halves have returned

	// Written by the leg's goroutines, read after done.
	ps     *core.PreparedSource
	srcErr error
	ip     *IncomingProcess
	tgtErr error
}

// launchLeg starts p's channel leg over a fresh control pipe. Both halves
// always terminate: each closes its pipe end on error, which fails the
// peer's pending Recv instead of parking it forever.
func launchLeg(p *Process, blob []byte, tvm *VM, cfg *LiveMigrationConfig, opts *core.Options, root *telemetry.Span) *channelLeg {
	t1, t2 := core.NewPipe()
	var ts, td core.Transport = t1, t2
	if cfg.TransportFactory != nil {
		ts, td = cfg.TransportFactory(p.Name, t1, t2)
	}
	// Fork: the legs overlap pre-copy (or, serial, each other's commit
	// predecessors) on their own trace rows. The core.channel /
	// core.target.prepare spans of both halves parent here via the
	// per-enclave Options clone.
	l := &channelLeg{p: p, ts: ts, done: make(chan struct{}),
		sp: root.Fork("vmm.enclave.channel", telemetry.String("enclave", p.Name))}
	encOpts := *opts
	encOpts.Trace = l.sp
	encOpts.EnclaveID = p.Name
	go func() {
		defer close(l.done)
		tgtDone := make(chan struct{})
		go func() {
			defer close(tgtDone)
			l.ip, l.tgtErr = tvm.OS.ReceiveEnclaveProcessPrepare(p.Name, p.Image, td, &encOpts, p.workload)
			if l.tgtErr != nil {
				_ = td.Close()
			}
		}()
		l.ps, l.srcErr = core.MigrateOutChannel(p.RT, blob, ts, &encOpts)
		if l.srcErr != nil {
			_ = ts.Close()
		}
		<-tgtDone
		l.sp.Fail(l.err())
	}()
	return l
}

// err is the leg's failure, if any; valid once done is closed.
func (l *channelLeg) err() error {
	cause := l.srcErr
	if cause == nil {
		cause = l.tgtErr
	}
	if cause == nil {
		return nil
	}
	return fmt.Errorf("vmm: migrate enclave %s: %w", l.p.Name, cause)
}

// unwind awaits the leg and releases whatever half of it came up: the
// target's built enclave is destroyed, the source's migration cancelled. A
// half that failed has already cleaned up after itself. The link closes
// last, taking the abort messages neither half will read with it.
func (l *channelLeg) unwind(reason string) {
	<-l.done
	if l.tgtErr == nil {
		l.ip.Abort(reason)
	}
	if l.srcErr == nil {
		_ = l.ps.Cancel(reason)
	}
	_ = l.ts.Close()
}

// pollLegs looks at the legs without blocking: whether any is still running
// and the first failure among those that are not.
func pollLegs(legs []*channelLeg) (pending bool, err error) {
	for _, l := range legs {
		select {
		case <-l.done:
			if err == nil {
				err = l.err()
			}
		default:
			pending = true
		}
	}
	return pending, err
}

// commit is l's share of the window: the source self-destroys and sends
// Kmigrate (the commit point, Sec. V-B), the target installs the key. A
// target still waiting for a key that never left is aborted; a target that
// fails to install the key has cleaned up after itself, and its source,
// already self-destroyed, hears the outcome (hangUp).
func (l *channelLeg) commit() error {
	if err := l.ps.Commit(); err != nil {
		l.ip.Abort("source commit failed")
		return err
	}
	err := l.ip.pt.InstallKey()
	if err != nil {
		l.hangUp()
	}
	return err
}

// hangUp ends a committed leg whose target will not finish and has been
// torn down: its abort is on its way, unless the link is what failed, so
// close the link and let the source's wait for MsgDone end either way. The
// source files the lost instance's abort record and count.
func (l *channelLeg) hangUp() {
	_ = l.ts.Close()
	_, _ = l.ps.AwaitDone()
}

// rebuild is l's share of the restore phase after the VM resumed: the
// target restores and verifies the enclave and acknowledges, the source
// hears it, and the process joins the target guest. The target's outcome
// decides: the source has self-destroyed, so its half can only report.
func (l *channelLeg) rebuild() (*Process, error) {
	tp, err := l.ip.Rebuild()
	if err != nil {
		l.hangUp()
		return nil, err
	}
	_, _ = l.ps.AwaitDone()
	return tp, nil
}

// LiveMigrate live-migrates a VM (with any enclaves inside) from its node to
// dst, implementing the pipeline of Fig. 8:
//
//  1. bulk round of the resident guest pages — the extents somebody wrote;
//     the rest is zero on both sides — streamed through a bounded sender,
//  2. the guest OS prepares every enclave (two-phase checkpointing; the
//     encrypted checkpoints land in guest memory) — by default concurrently
//     with the pre-copy rounds, serially with cfg.PaperSchedule,
//  3. iterative pre-copy of guest memory while non-enclave work continues,
//  4. one channel leg per enclave (image and checkpoint transfer, target
//     build, attestation, DH — everything up to but excluding key release),
//     launched the moment the dump lands so it overlaps steps 1 and 3; with
//     cfg.PaperSchedule the legs run inside the window, one at a time,
//  5. once pre-copy has converged and the dump has landed, a flush: the
//     guest keeps running until the sender's queue is empty and the link
//     idle, so the window below pays for no round's leftovers,
//  6. stop-and-copy of the residual dirty set, then a wait for whatever a
//     leg could not hide,
//  7. the serial commit: per enclave, self-destroy and key release on the
//     source and key install on the target. It starts strictly after the
//     drain and after every leg has succeeded, so a failure anywhere before
//     it can still cancel every enclave,
//  8. resume on the target: the downtime window ends,
//  9. the serial rebuild: per enclave, restore with in-enclave CSSA
//     verification on the target, then the process joins the guest; their
//     workload loops start after the last one. A restore that fails here
//     loses that one enclave (LostEnclaves); the VM and the other enclaves
//     run on.
//
// On success the error is nil. If an enclave was lost in step 9, LiveMigrate
// returns the running target VM and its stats together with an error
// wrapping ErrEnclavesLost. Any other error leaves no target VM (nil): the
// source VM runs on, its enclaves resumed — but for those whose key was
// already released (step 7), which are lost.
//
// A failed leg or a dead page stream is noticed at the next round boundary,
// or after the flush, and fails the migration before the guest is paused.
//
// Per the paper's accounting, the reported downtime includes the enclave
// checkpointing time even though non-enclave applications keep running
// during it; with the pipelined schedule only the dump time that pre-copy
// could not hide is charged.
func LiveMigrate(vm *VM, dst *Node, cfg *LiveMigrationConfig) (*VM, *LiveMigrationStats, error) {
	if cfg == nil {
		cfg = &LiveMigrationConfig{}
	}
	opts := cfg.Opts
	if opts == nil {
		opts = &core.Options{Service: vm.Node.Service}
	}
	stats := &LiveMigrationStats{}
	met := cfg.Metrics

	// The tracer is always on: the phase timings reported in stats are the
	// durations of the spans below, so a cfg.Tracer simply additionally
	// gets to export what LiveMigrate measures anyway.
	tr := cfg.Tracer
	if tr == nil {
		tr = telemetry.New()
	}
	root := tr.Begin("vmm.livemigrate", telemetry.String("vm", vm.Name), telemetry.String("dst", dst.Name))
	defer root.End()

	tvm, err := dst.CreateVM(vm.Config)
	if err != nil {
		root.Fail(err)
		return nil, nil, err
	}
	// Publish EPC frame accounting of both guests for the migration's
	// duration (dark when met is nil).
	vm.OS.Host().Mgr.SetMetrics(met)
	tvm.OS.Host().Mgr.SetMetrics(met)

	procs := vm.OS.Processes()
	stats.EnclaveCount = len(procs)
	root.Annotate(telemetry.Int("enclaves", len(procs)))

	snd := newChunkSender(vm.Mem, tvm.Mem, cfg, met)
	dumpCh := make(chan dumpResult, 1)
	dumpPending := false
	var blobs map[string][]byte
	// legs holds the launched, not yet committed channel legs; committed
	// those whose key is installed on the target.
	var legs, committed []*channelLeg
	// dumped files the dump's outcome with the engine: the blobs, and the
	// legs already running on them.
	dumped := func(r dumpResult) error {
		dumpPending = false
		if r.err != nil {
			return fmt.Errorf("vmm: prepare enclaves: %w", r.err)
		}
		blobs, legs, stats.EnclaveDumpTime = r.blobs, r.legs, r.took
		return nil
	}
	// fail unwinds a partial migration: finish the stream, let a dump still
	// in flight land (cancelling under it would strand its enclaves parked),
	// release every leg, resume the source enclaves, and tear down the
	// half-built target VM so its guest memory and EPC are returned. Stream
	// and dump errors don't matter anymore — the migration is already
	// failing.
	fail := func(err error) (*VM, *LiveMigrationStats, error) {
		_ = snd.drain()
		if dumpPending {
			_ = dumped(<-dumpCh)
		}
		for _, l := range legs {
			l.unwind("VM migration failed")
		}
		for _, l := range committed {
			l.ip.Abort("VM migration failed")
			l.hangUp()
		}
		vm.OS.CancelMigration()
		_ = tvm.Shutdown()
		root.Fail(err)
		return nil, nil, err
	}

	// Enclave dump (Fig. 8 steps 1-6; Fig. 9(d) metric). The encrypted
	// checkpoints land in guest memory and dirty it, so they ride later
	// pre-copy rounds — this is the extra transferred data of Fig. 10(d).
	// By default the dump runs concurrently with the bulk and iterative
	// rounds below; PaperSchedule blocks here first, reproducing the paper's
	// serial schedule.
	if len(procs) > 0 {
		// The dump span parents the per-enclave core.prepare/core.dump
		// spans; runDump owns its lifetime on both schedules. On the
		// pipelined schedule the legs start right here, the moment the
		// blobs exist: they are all a leg was waiting for, and most of the
		// bulk round is still ahead to hide them behind.
		runDump := func(sp *telemetry.Span) dumpResult {
			dumpOpts := *opts
			dumpOpts.Trace = sp
			var r dumpResult
			r.blobs, r.took, r.err = vm.OS.PrepareAllEnclaves(&dumpOpts)
			if r.err != nil {
				sp.Fail(r.err)
				return r
			}
			sp.Annotate(telemetry.Duration("guest_dump", r.took))
			sp.End()
			if !cfg.PaperSchedule {
				for _, p := range procs {
					r.legs = append(r.legs, launchLeg(p, r.blobs[p.Name], tvm, cfg, opts, root))
				}
			}
			return r
		}
		if cfg.PaperSchedule {
			// Child, not Fork: the serial schedule keeps the dump on the
			// main track, strictly before the bulk round in the trace.
			if err := dumped(runDump(root.Child("vmm.dump", telemetry.String("schedule", "serial")))); err != nil {
				return fail(err)
			}
		} else {
			dumpPending = true
			dumpSp := root.Fork("vmm.dump", telemetry.String("schedule", "pipelined"))
			go func() { dumpCh <- runDump(dumpSp) }()
		}
	}

	roundHist := met.Histogram("vmm.round.bytes", roundBytesBounds)

	// healthy is the look every boundary takes while the guest is still
	// running: a dead stream or a failed leg (a refused attestation, say)
	// ends the migration there, at no downtime at all.
	healthy := func() error {
		if snd.broken.Load() {
			return fmt.Errorf("vmm: page stream: %w", snd.drain())
		}
		_, err := pollLegs(legs)
		return err
	}

	// Bulk round (round 0), overlapped with the dump: the resident pages
	// only. tvm was created above and nothing but this stream and the
	// target's own claimed windows writes it, so a page never sent is zero on
	// both sides; a write that backs a new extent from here on dirties its
	// pages under the same lock and rides a later round.
	vm.Mem.MarkResidentDirty()
	round0 := vm.Mem.CollectDirty()
	stats.RoundDirtyPages = append(stats.RoundDirtyPages, len(round0))
	bulkAttrs := []telemetry.Attr{telemetry.Int("round", 0), telemetry.Int("pages", len(round0)),
		telemetry.Int("resident", len(round0)), telemetry.Int("guest_pages", vm.Mem.Pages())}
	bulkSp := root.Child("vmm.bulk", bulkAttrs...)
	snd.send(round0, chunkPages, &stats.BulkBytes, &stats.BulkWireBytes, bulkSp.Context())
	bulkSp.End()
	opts.Journal.Append(telemetry.EventPrecopyRound, vm.Name, bulkSp.Context(), bulkAttrs...)
	roundHist.Observe(int64(len(round0)) * PageSize)

	// Iterative pre-copy of the dirty residue (checkpoint pages plus
	// whatever the still-running plain processes and the source halves of
	// the legs touch). While the dump is pending the rounds keep spinning —
	// that transmission time is hidden dump time; dumpWaited is the part
	// pre-copy could not hide.
	var dumpWaited time.Duration
	for round := 1; ; round++ {
		if dumpPending {
			select {
			case r := <-dumpCh:
				if err := dumped(r); err != nil {
					return fail(err)
				}
			default:
			}
		}
		dirty := vm.Mem.CollectDirty()
		stats.RoundDirtyPages = append(stats.RoundDirtyPages, len(dirty))
		converged := len(dirty) <= dirtyThresholdPages || round >= maxRounds
		roundSp := root.Child("vmm.precopy.round",
			telemetry.Int("round", round), telemetry.Int("pages", len(dirty)))
		snd.send(dirty, chunkPages, &stats.PreCopyBytes, &stats.PreCopyWireBytes, roundSp.Context())
		roundSp.End()
		opts.Journal.Append(telemetry.EventPrecopyRound, vm.Name, roundSp.Context(),
			telemetry.Int("round", round), telemetry.Int("pages", len(dirty)))
		roundHist.Observe(int64(len(dirty)) * PageSize)
		if err := healthy(); err != nil {
			return fail(err)
		}
		if !converged {
			continue
		}
		if dumpPending {
			// Pre-copy has converged but the checkpoints are not out yet:
			// this wait is the dump time the pipeline failed to hide.
			waitSp := root.Child("vmm.dumpwait")
			r := <-dumpCh
			waitSp.End()
			dumpWaited += waitSp.Duration()
			if err := dumped(r); err != nil {
				return fail(err)
			}
			// One more round so the checkpoint pages ride pre-copy rather
			// than bloating the stop-and-copy window.
			continue
		}
		stats.PreCopyRounds = round
		break
	}
	if stats.EnclaveDumpTime > dumpWaited {
		stats.DumpPrecopyOverlap = stats.EnclaveDumpTime - dumpWaited
	}
	if cfg.PaperSchedule {
		stats.DumpPrecopyOverlap = 0
	}

	// Pause on an idle link: the last round is collected but up to
	// sendQueueChunks of it are still queued behind the shaped link, and the
	// guest would sit paused while they cross. Let them out first — the guest
	// runs on, what it dirties meanwhile is a few pages of the final set.
	flushSp := root.Child("vmm.flush")
	snd.flush()
	err = healthy()
	flushSp.Fail(err)
	if err != nil {
		return fail(err)
	}

	// Stop-and-copy (downtime window begins). Enclave workers are already
	// parked in their in-enclave spin regions; stop the rest, ship the final
	// dirty set and the device state, and drain the stream — everything must
	// have landed before the target may resume. The downtime span runs
	// until the target resumes; the deferred End covers the fail paths.
	downSp := root.Child("vmm.downtime")
	defer downSp.End()
	gcAtPause := gcCycles()
	vm.OS.StopPlain()
	final := vm.Mem.CollectDirty()
	stats.RoundDirtyPages = append(stats.RoundDirtyPages, len(final))
	scSp := downSp.Child("vmm.stopcopy", telemetry.Int("pages", len(final)))
	snd.send(final, chunkPages, &stats.StopCopyBytes, &stats.StopCopyWireBytes, scSp.Context())
	snd.sendBlob(64*1024, &stats.StopCopyBytes, &stats.StopCopyWireBytes) // device state
	if err := snd.drain(); err != nil {
		err = fmt.Errorf("vmm: page stream: %w", err)
		scSp.Fail(err)
		return fail(err)
	}
	scSp.End()
	opts.Journal.Append(telemetry.EventStopCopy, vm.Name, scSp.Context(),
		telemetry.Int("pages", len(final)))
	roundHist.Observe(int64(len(final)) * PageSize)

	// What the legs could not hide. On the pipelined schedule they have
	// been running since the dump landed and this is at most their tail; on
	// the paper's serial schedule they start here, one enclave after the
	// other. Either way nothing below runs until every leg has succeeded:
	// no source has self-destroyed, so one failure still cancels them all.
	if pending, _ := pollLegs(legs); pending || (cfg.PaperSchedule && len(procs) > 0) {
		waitSp := downSp.Child("vmm.channelwait")
		if cfg.PaperSchedule {
			for _, p := range procs {
				l := launchLeg(p, blobs[p.Name], tvm, cfg, opts, root)
				legs = append(legs, l)
				if <-l.done; l.err() != nil {
					break
				}
			}
		}
		for _, l := range legs {
			<-l.done
		}
		waitSp.End()
		stats.ChannelWait = waitSp.Duration()
	}
	if _, err := pollLegs(legs); err != nil {
		return fail(err)
	}

	// Serial commit, one enclave after another. Past the first successful
	// release the migration is committed (that source has self-destroyed);
	// a failure here still unwinds the whole VM — the paper accepts losing
	// an instance over forking it. With every key installed, whatever fails
	// after the window is in-enclave.
	commitAll := downSp.Child("vmm.commit")
	defer commitAll.End()
	for len(legs) > 0 {
		// Off the list first: commit cleans up after itself, fail must only
		// unwind the legs behind this one.
		l := legs[0]
		legs = legs[1:]
		cSp := commitAll.Child("vmm.enclave.commit", telemetry.String("enclave", l.p.Name))
		// The commit consumes the session the leg built on its own forked
		// track; the link draws that handoff as a flow arrow in the merged
		// trace.
		cSp.Link(l.sp.Context())
		err := l.commit()
		cSp.Fail(err)
		if err != nil {
			return fail(fmt.Errorf("vmm: migrate enclave %s: %w", l.p.Name, err))
		}
		committed = append(committed, l)
		// Control-protocol traffic (quote, verdict, DH, sealed key):
		// counted, not paced — far inside the page stream's linkCredit.
		stats.EnclaveCtlBytes += 1024
	}
	commitAll.End()

	// Resume on the target. The stream has drained: the windows the guest
	// claimed for its incoming enclaves are ordinary memory again — a
	// restore reads its checkpoint from the frames it arrived in, not from
	// guest memory.
	tvm.Mem.ReleaseWindows()
	vm.dead.Store(true)
	// A window of a millisecond or two moves with whether a collection
	// lands in it; the count says which windows one did.
	downSp.Annotate(telemetry.Int64("gc_cycles", int64(gcCycles()-gcAtPause)))
	downSp.End()
	stats.Downtime = downSp.Duration() + stats.EnclaveDumpTime - stats.DumpPrecopyOverlap
	opts.Journal.Append(telemetry.EventDowntime, vm.Name, downSp.Context(),
		telemetry.Duration("downtime", stats.Downtime))

	// Serial rebuild with the VM running ("the enclaves are rebuilt one by
	// one"). An enclave gets its process only once its restore has been
	// verified, so no caller sees it half-built; one whose restore fails is
	// lost on its own. The workload loops start after the last restore:
	// started earlier, the rebuilt enclaves' busy workers take the CPUs the
	// later restores need (EXPERIMENTS.md A23).
	restoreAll := root.Child("vmm.restore")
	stats.EnclaveUnavailable = make(map[string]time.Duration, len(committed))
	rebuilt := make([]*Process, 0, len(committed))
	for _, l := range committed {
		rSp := restoreAll.Child("vmm.enclave.restore", telemetry.String("enclave", l.p.Name))
		tp, err := l.rebuild()
		rSp.Fail(err)
		if err != nil {
			stats.LostEnclaves = append(stats.LostEnclaves, l.p.Name)
			continue
		}
		stats.EnclaveUnavailable[l.p.Name] = time.Since(l.p.quiesced)
		rebuilt = append(rebuilt, tp)
	}
	restoreAll.End()
	for _, tp := range rebuilt {
		tp.start()
	}
	if len(procs) > 0 {
		stats.KeyReleaseTime = commitAll.Duration()
		stats.EnclaveRestoreTime = restoreAll.Duration()
	}
	var lostErr error
	if len(stats.LostEnclaves) > 0 {
		lostErr = fmt.Errorf("%w: %s", ErrEnclavesLost, strings.Join(stats.LostEnclaves, ", "))
	}
	root.Fail(lostErr)
	// Stats are read back off the spans: the tracer is the single source
	// of truth for the phase timings.
	stats.TotalTime = root.Duration()
	// Logical total partitions exactly into the per-phase counters; the
	// wire total adds the framed stream's real encoded size to the control
	// traffic (which has no framed encoding — its estimate counts 1:1).
	stats.TransferredBytes = stats.BulkBytes + stats.PreCopyBytes + stats.StopCopyBytes + stats.EnclaveCtlBytes
	stats.WireBytes = stats.BulkWireBytes + stats.PreCopyWireBytes + stats.StopCopyWireBytes + stats.EnclaveCtlBytes
	stats.RawFrames = snd.rawFrames
	stats.DeltaFrames = snd.deltaFrames
	stats.DeltaSavedBytes = snd.deltaSaved
	if met != nil {
		// Hardware execution counters at migration end; both machines so
		// AEX storms on either side are visible in /metrics.
		ee, er, ax := vm.Node.Machine.ExecCounters()
		met.Gauge("sgx.source.eenter").Set(int64(ee))
		met.Gauge("sgx.source.eresume").Set(int64(er))
		met.Gauge("sgx.source.aex").Set(int64(ax))
		ee, er, ax = dst.Machine.ExecCounters()
		met.Gauge("sgx.target.eenter").Set(int64(ee))
		met.Gauge("sgx.target.eresume").Set(int64(er))
		met.Gauge("sgx.target.aex").Set(int64(ax))
	}

	// The source VM is gone; its enclaves have self-destroyed, so their
	// parked host loops exit with ErrDestroyed and the EPC can be freed.
	// The migration has committed either way: a teardown error changes
	// nothing the caller can act on.
	for _, p := range procs {
		p.Stop()
		_ = p.RT.Destroy()
	}
	return tvm, stats, lostErr
}

// gcCycles reads how many garbage-collection cycles this process has
// completed.
func gcCycles() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// IncomingProcess is a target-side enclave process whose build and attested
// channel have completed but whose key delivery and in-enclave rebuild have
// not run yet. LiveMigrate prepares all enclaves (possibly concurrently),
// installs each one's key in turn inside the downtime window, and calls
// Rebuild on each in turn after the VM resumed.
type IncomingProcess struct {
	os         *OS
	name       string
	image      string
	workload   WorkloadFunc
	pt         *core.PreparedTarget
	sharedBase uint64
	sharedSize uint64
}

// ReceiveEnclaveProcessPrepare is the target guest OS half of one enclave
// migration up to (but excluding) the key delivery and restore: allocate a
// shared region in this VM's memory and claim it against the migration
// stream that may still be landing there (see GuestMemory.ClaimWindow),
// rebuild the image, and run the attested channel. The returned
// IncomingProcess must be finished with Restore or released with Abort.
func (o *OS) ReceiveEnclaveProcessPrepare(name, image string, t core.Transport, opts *core.Options, workload WorkloadFunc) (*IncomingProcess, error) {
	dep, ok := o.reg.Lookup(image)
	if !ok {
		return nil, fmt.Errorf("vmm: image %q not deployed in guest %s", image, o.Name)
	}
	size := uint64(enclave.SharedSizeFor(appLayout(dep.App)))
	base, err := o.allocShared(size)
	if err != nil {
		return nil, err
	}
	if err := o.mem.ClaimWindow(base, size); err != nil {
		return nil, err
	}
	region, err := o.mem.Region(base, size)
	if err != nil {
		return nil, err
	}
	inOpts := *opts
	inOpts.BuildOptions = append(append([]enclave.BuildOption(nil), opts.BuildOptions...), enclave.WithShared(region))
	pt, err := core.MigrateInPrepare(o.host, o.reg, t, &inOpts)
	if err != nil {
		return nil, err
	}
	return &IncomingProcess{
		os:         o,
		name:       name,
		image:      image,
		workload:   workload,
		pt:         pt,
		sharedBase: base,
		sharedSize: size,
	}, nil
}

// Rebuild performs the in-enclave rebuild (CSSA restore + verify) and
// registers the process with the guest OS; the caller starts its workload
// loops. On failure the built enclave's EPC has been freed.
func (ip *IncomingProcess) Rebuild() (*Process, error) {
	inc, err := ip.pt.Rebuild()
	if err != nil {
		return nil, err
	}
	// Drain in-flight ecall completions; the workload loops reclaim the
	// workers afterwards, and Process.Stop waits for the drain to end.
	resumed := make(chan struct{})
	go func() {
		defer close(resumed)
		for range inc.Results {
		}
	}()
	p := &Process{
		Name:       ip.name,
		Image:      ip.image,
		RT:         inc.Runtime,
		workload:   ip.workload,
		sharedBase: ip.sharedBase,
		sharedSize: ip.sharedSize,
		resumed:    resumed,
	}
	ip.os.mu.Lock()
	ip.os.procs = append(ip.os.procs, p)
	ip.os.mu.Unlock()
	return p, nil
}

// Abort tears the prepared target process down without restoring (the peer
// is notified and the enclave's EPC returned).
func (ip *IncomingProcess) Abort(reason string) { ip.pt.Abort(reason) }
