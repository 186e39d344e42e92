// Package telemetry is the repository's zero-dependency observability
// layer: a goroutine-safe span tracer and a metrics registry (counters,
// gauges, fixed- and log-bucketed histograms with quantile estimates),
// with exporters for the Chrome trace-event JSON format
// (chrome://tracing, https://ui.perfetto.dev), a plain-text snapshot dump,
// and a live HTTP handler that also mounts net/http/pprof.
//
// Traces are distributed: every span carries a TraceID/SpanID pair, the
// Context Inject/Extract helpers move them across process boundaries in a
// W3C-traceparent-style header, BeginRemote parents a local span under a
// remote one, and WireTrace/ExportTrace/Adopt ship finished span buffers
// between processes so an sgxhost→sgxhost migration exports as one merged
// trace. Head-based sampling (SetSampling) with always-keep-on-error makes
// tracing cheap enough to leave on permanently.
//
// The disabled state is the nil pointer: every method on *Tracer, *Span
// and the metric instruments is a safe no-op on a nil receiver, so
// instrumented code threads a possibly-nil handle through hot paths
// without branching, and the disabled cost is a couple of nil checks
// (see BenchmarkNopTracer). Each migration, benchmark run or daemon owns
// its own Tracer/Metrics pair; the one process-wide state is the ledger
// count of open spans.
//
// Span taxonomy, metric names and how to open a trace in Perfetto are
// documented in docs/TELEMETRY.md.
package telemetry

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
)

// Attr is one key/value annotation on a span. Values are strings so the
// exporters stay allocation-simple; use the constructors for other types.
type Attr struct {
	Key string
	Val string
}

// String builds a string attribute.
func String(key, val string) Attr { return Attr{Key: key, Val: val} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Val: strconv.Itoa(v)} }

// Int64 builds a 64-bit integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, Val: strconv.FormatInt(v, 10)} }

// Duration builds a duration attribute.
func Duration(key string, d time.Duration) Attr { return Attr{Key: key, Val: d.String()} }

// SpanRecord is one finished (or, during live export, still-running) span
// as the exporters and tests see it. Start is the offset from the
// tracer's epoch; Dur is zero while the span is running.
//
// ID/Parent/Track are process-local (compact, allocation-order) handles;
// TraceID/SpanID/ParentSpan are the globally-unique identities that
// survive shipment to another process. Proc is empty for locally-recorded
// spans and names the originating process on spans merged in via Adopt.
type SpanRecord struct {
	Name       string
	ID         uint64
	Parent     uint64 // 0 for root spans
	Track      uint64 // rendering row; children inherit it, Fork opens a new one
	TraceID    TraceID
	SpanID     SpanID
	ParentSpan SpanID // zero for trace roots; may name a span in another process
	Proc       string // originating process for adopted spans; "" = this process
	Start      time.Duration
	Dur        time.Duration
	Attrs      []Attr
	// Links are the contexts of causally-related spans that are not this
	// span's ancestors (Span.Link): the producer half of a channel
	// handoff, the remote peer of an in-process transport. Exporters
	// render them as flow arrows. A record from a peer that predates the
	// field decodes with none, so WireTrace stays wire-compatible.
	Links []Context
}

// Tracer collects spans. A nil *Tracer is the no-op tracer: Begin returns
// a nil *Span and the whole span API degenerates to nil checks.
type Tracer struct {
	// epoch and seed are immutable after construction, so spans read them
	// without the lock: TestAdoptKeepsTheLocalEpoch and
	// TestSeededIDsDeterministic check them, and -race in
	// TestAdoptConcurrentWithBegin sees a write.
	epoch   time.Time // span-timestamp origin
	seed    uint64    // ID-derivation seed
	ids     atomic.Uint64
	tracks  atomic.Uint64
	sampleP atomic.Uint64 // math.Float64bits of the sampling probability

	mu      sync.Mutex
	done    []SpanRecord           // guarded by mu; read through doneLocked
	maxDone int                    // guarded by mu; cap on done, 0 = unlimited
	live    map[uint64]*Span       // guarded by mu
	traces  map[uint64]*traceState // guarded by mu; unsampled in-flight traces
}

// DefaultSpanCap bounds a new tracer's finished-span buffer: once it is
// full, the oldest records are evicted as new ones arrive. At ~200 bytes a
// record that caps the buffer's resident cost at a few MB, so an always-on
// daemon tracer cannot grow without bound no matter how long it runs or
// how many failed traces peers send it. SetSpanCap adjusts or lifts it.
const DefaultSpanCap = 32768

// spanCapSlack is the fraction of the cap (1/spanCapSlack) the buffer may
// overshoot before the oldest records are dropped in one move. Evicting on
// every End would copy the whole buffer per span once a long-lived daemon
// is past the cap; in blocks, a span pays for spanCapSlack record copies.
const spanCapSlack = 4

// tracerSeeds differentiates tracers created in the same nanosecond.
var tracerSeeds atomic.Uint64

// New returns an enabled tracer whose span timestamps are relative to now
// and whose IDs are drawn from a time-derived seed.
func New() *Tracer {
	return NewSeeded(mix64(uint64(time.Now().UnixNano())) ^ mix64(tracerSeeds.Add(1)))
}

// NewSeeded returns an enabled tracer whose TraceIDs and SpanIDs are a
// pure function of seed and span order, so tests get reproducible IDs.
func NewSeeded(seed uint64) *Tracer {
	t := &Tracer{
		epoch:   time.Now(),
		seed:    seed,
		maxDone: DefaultSpanCap,
		live:    make(map[uint64]*Span),
		traces:  make(map[uint64]*traceState),
	}
	t.sampleP.Store(math.Float64bits(1))
	return t
}

// SetSpanCap bounds the finished-span buffer at n records, evicting the
// oldest when full; n <= 0 removes the bound (useful in tests that want
// every span). Safe on a nil tracer.
func (t *Tracer) SetSpanCap(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	// Settle the overshoot under the old cap first: what readers could not
	// see must not reappear under a wider one.
	t.compactDoneLocked()
	t.maxDone = n
	t.compactDoneLocked()
	t.mu.Unlock()
}

// appendDoneLocked files finished records and enforces the span cap.
// t.mu must be held.
func (t *Tracer) appendDoneLocked(recs ...SpanRecord) {
	t.done = append(t.done, recs...)
	t.trimDoneLocked()
}

// trimDoneLocked evicts the oldest records once the buffer has overshot
// the cap by its slack, reusing the backing array so a long-lived tracer
// does not keep reallocating. Readers never see the overshoot: they go
// through doneLocked. t.mu must be held.
func (t *Tracer) trimDoneLocked() {
	if t.maxDone > 0 && len(t.done) > t.maxDone+t.maxDone/spanCapSlack {
		t.compactDoneLocked()
	}
}

// compactDoneLocked drops whatever the buffer holds beyond the cap.
// t.mu must be held.
func (t *Tracer) compactDoneLocked() {
	t.done = append(t.done[:0], t.doneLocked()...)
}

// doneLocked is the finished-span buffer as every reader sees it: the
// newest maxDone records, in End order. t.mu must be held.
func (t *Tracer) doneLocked() []SpanRecord {
	if t.maxDone > 0 && len(t.done) > t.maxDone {
		return t.done[len(t.done)-t.maxDone:]
	}
	return t.done
}

// Begin starts a root span on a fresh track, rooting a new trace with a
// fresh TraceID and applying the tracer's sampling policy.
func (t *Tracer) Begin(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.beginRoot(name, Context{}, attrs)
}

// BeginRemote starts a root-level span that continues a trace begun in
// another process: the span adopts ctx's TraceID and sampling decision and
// parents under ctx's SpanID, so a migration's target-host spans nest
// under the client's migration span in the merged trace. A zero ctx (the
// untraced request) degrades to Begin.
func (t *Tracer) BeginRemote(name string, ctx Context, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.beginRoot(name, ctx, attrs)
}

func (t *Tracer) beginRoot(name string, ctx Context, attrs []Attr) *Span {
	id := t.ids.Add(1)
	s := &Span{
		tr:         t,
		name:       name,
		id:         id,
		root:       id,
		track:      t.tracks.Add(1),
		start:      time.Now(),
		spanID:     t.newSpanID(id),
		parentSpan: ctx.SpanID,
		attrs:      append([]Attr(nil), attrs...),
	}
	if ctx.TraceID.IsZero() {
		s.traceID = t.newTraceID(id)
		s.sampled = t.sampleTrace(s.traceID)
	} else {
		s.traceID = ctx.TraceID
		s.sampled = ctx.Sampled
	}
	openSpans.Add(1)
	t.mu.Lock()
	t.live[s.id] = s
	if !s.sampled {
		t.trackUnsampledLocked(s.root)
	}
	t.mu.Unlock()
	return s
}

// newChild starts a sub-span of parent on the given track, inheriting the
// parent's trace identity and sampling decision.
func (t *Tracer) newChild(parent *Span, name string, track uint64, attrs []Attr) *Span {
	id := t.ids.Add(1)
	s := &Span{
		tr:         t,
		name:       name,
		id:         id,
		parent:     parent.id,
		root:       parent.root,
		track:      track,
		start:      time.Now(),
		traceID:    parent.traceID,
		spanID:     t.newSpanID(id),
		parentSpan: parent.spanID,
		sampled:    parent.sampled,
		attrs:      append([]Attr(nil), attrs...),
	}
	openSpans.Add(1)
	t.mu.Lock()
	t.live[s.id] = s
	if !s.sampled {
		t.trackUnsampledLocked(s.root)
	}
	t.mu.Unlock()
	return s
}

// record files a finished span. Called by Span.End without Span.mu held,
// so the only lock nesting in the package is none at all.
func (t *Tracer) record(s *Span, rec SpanRecord) {
	openSpans.Add(-1)
	t.mu.Lock()
	delete(t.live, rec.ID)
	if s.sampled {
		t.appendDoneLocked(rec)
	} else {
		t.recordUnsampledLocked(s.root, rec)
	}
	t.mu.Unlock()
}

// Completed returns a copy of every finished span, in End order.
func (t *Tracer) Completed() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.doneLocked()...)
}

// ByName returns the finished spans with the given name, in End order.
func (t *Tracer) ByName(name string) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	for _, r := range t.doneLocked() {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// openSpans counts the spans of every tracer in the process that have
// begun but not ended.
var openSpans = ledger.New("span")

// ActiveCount returns how many spans have begun but not ended — useful for
// leak checks in tests and for the /debug/trace status line. Unsampled
// spans count too: a leak is a leak regardless of the sampling decision.
func (t *Tracer) ActiveCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

// snapshot copies the export state without holding any span lock. Live
// spans of unsampled traces are withheld: their fate is undecided, and
// exporting them would leak spans the sampler is about to drop.
func (t *Tracer) snapshot() (done []SpanRecord, live []*Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	done = append([]SpanRecord(nil), t.doneLocked()...)
	live = make([]*Span, 0, len(t.live))
	for _, s := range t.live {
		if s.sampled {
			live = append(live, s)
		}
	}
	return done, live
}

// Span is one timed operation. Spans nest via Child (same rendering track)
// and Fork (new track, for work that overlaps the parent on another
// goroutine). All methods are safe on a nil receiver and End is
// idempotent, so error paths can End a span a second time harmlessly.
type Span struct {
	tr         *Tracer
	name       string
	id         uint64
	parent     uint64
	root       uint64 // local id of this trace's root span
	track      uint64
	start      time.Time
	traceID    TraceID
	spanID     SpanID
	parentSpan SpanID
	sampled    bool

	mu    sync.Mutex
	attrs []Attr        // guarded by mu
	links []Context     // guarded by mu
	ended bool          // guarded by mu
	dur   time.Duration // guarded by mu
}

// Context returns the span's portable trace context, for Inject into a
// cross-process request. A nil span returns the zero (untraced) Context.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{TraceID: s.traceID, SpanID: s.spanID, Sampled: s.sampled}
}

// Child starts a sub-span on the parent's track: sequential phases of the
// same logical activity.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newChild(s, name, s.track, attrs)
}

// Fork starts a sub-span on a fresh track: concurrent work (a goroutine)
// whose interval overlaps the parent, so the trace viewer renders it on
// its own row instead of mis-nesting it.
func (s *Span) Fork(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newChild(s, name, s.tr.tracks.Add(1), attrs)
}

// Link ties the span to another span that is causally related but not an
// ancestor — the two halves of a channel handoff, the peer endpoint of an
// in-process transport — so the trace viewer can draw a flow arrow
// between rows that plain parent/child nesting cannot connect. Linking
// the zero (untraced) context, or linking on a nil span, is a no-op.
func (s *Span) Link(ctx Context) {
	if s == nil || ctx.SpanID.IsZero() {
		return
	}
	s.mu.Lock()
	s.links = append(s.links, ctx)
	s.mu.Unlock()
}

// Annotate appends attributes to a running span.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End finishes the span and files it with the tracer. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	rec := s.recordLocked()
	s.mu.Unlock()
	s.tr.record(s, rec)
}

// Fail annotates the span with err (when non-nil) and ends it. Fault
// paths use it so aborted phases stay visible in the trace; a non-nil err
// additionally marks the whole trace as failed, which exempts it from
// sampling (failed traces are always kept).
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Annotate(Attr{Key: "error", Val: err.Error()})
		s.tr.markTraceFailed(s)
	}
	s.End()
}

// Duration returns the measured duration: zero until End.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// recordLocked builds the span's export record; s.mu must be held.
func (s *Span) recordLocked() SpanRecord {
	return SpanRecord{
		Name:       s.name,
		ID:         s.id,
		Parent:     s.parent,
		Track:      s.track,
		TraceID:    s.traceID,
		SpanID:     s.spanID,
		ParentSpan: s.parentSpan,
		Start:      s.start.Sub(s.tr.epoch),
		Dur:        s.dur,
		Attrs:      append([]Attr(nil), s.attrs...),
		Links:      append([]Context(nil), s.links...),
	}
}
