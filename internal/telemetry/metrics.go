package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is a registry of named instruments. A nil *Metrics hands out nil
// instruments, and every instrument method is a safe no-op on a nil
// receiver, so instrumented code looks up instruments once and uses them
// unconditionally on hot paths.
//
// Instruments are created on first lookup and live for the registry's
// lifetime; repeated lookups of the same name return the same instrument.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	ratios   map[string]*Ratio     // guarded by mu
}

// NewMetrics returns an enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		ratios:   make(map[string]*Ratio),
	}
}

// Counter returns the named monotonic counter, creating it if needed.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper-bound thresholds if needed. The first registration wins: later
// lookups return the existing histogram regardless of bounds, so callers
// agree on bucket layout by construction.
func (m *Metrics) Histogram(name string, bounds []int64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		m.hists[name] = h
	}
	return h
}

// Ratio returns the named hit ratio, creating it if needed.
func (m *Metrics) Ratio(name string) *Ratio {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.ratios[name]
	if r == nil {
		r = &Ratio{}
		m.ratios[name] = r
	}
	return r
}

// Ratio tracks a hit rate: hits over total observations (delta-frame hit
// rate, cache hit rate). Observation is one or two atomic adds.
type Ratio struct {
	hits  atomic.Int64
	total atomic.Int64
}

// Observe files one observation; hit says whether it counts toward the
// numerator.
func (r *Ratio) Observe(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.hits.Add(1)
	}
	r.total.Add(1)
}

// Hits returns the numerator.
func (r *Ratio) Hits() int64 {
	if r == nil {
		return 0
	}
	return r.hits.Load()
}

// Total returns the denominator.
func (r *Ratio) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// Value returns hits/total, or 0 with no observations.
func (r *Ratio) Value() float64 {
	if r == nil {
		return 0
	}
	t := r.total.Load()
	if t == 0 {
		return 0
	}
	return float64(r.hits.Load()) / float64(t)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue occupancy, frames in use).
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts int64 observations into fixed buckets. Bucket i counts
// observations v with v <= bounds[i] (and greater than every earlier
// bound); one extra overflow bucket counts the rest. Observation is a
// single atomic add, so concurrent observers never block each other.
type Histogram struct {
	bounds []int64        // immutable after NewHistogram
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
	total  atomic.Int64
	// exemplars holds, per bucket, the latest traced observation that
	// landed there (ObserveExemplar; last-write-wins), so a reader of the
	// p99 line can jump from the bucket to one concrete trace.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one bucketed observation to the trace it came from.
type Exemplar struct {
	Value   int64
	TraceID TraceID
	SpanID  SpanID
}

// NewHistogram builds a detached histogram (outside any registry) with the
// given sorted upper bounds. Useful for per-worker histograms that are
// merged into a registry-owned one afterwards.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe files one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveExemplar files one observation and, when ctx names a sampled
// span, stamps it as the bucket's exemplar — the concrete trace a reader
// can open to see why that bucket was hit. An unsampled or zero context
// degrades to Observe, so the hot path never pays for dropped traces.
func (h *Histogram) ObserveExemplar(v int64, ctx Context) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
	if ctx.Sampled && !ctx.SpanID.IsZero() {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: ctx.TraceID, SpanID: ctx.SpanID})
	}
}

// Merge folds o's observations into h. The bucket layouts must match.
// A nil h or o is a no-op.
func (h *Histogram) Merge(o *Histogram) error {
	if h == nil || o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("telemetry: merge of mismatched histograms (%d vs %d buckets)", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("telemetry: merge of mismatched histograms (bound %d: %d vs %d)", i, b, o.bounds[i])
		}
	}
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
		// A merged-in exemplar fills buckets that have none locally.
		if ex := o.exemplars[i].Load(); ex != nil {
			h.exemplars[i].CompareAndSwap(nil, ex)
		}
	}
	h.sum.Add(o.sum.Load())
	h.total.Add(o.total.Load())
	return nil
}

// HistogramSnapshot is a consistent-enough point-in-time copy for export:
// each bucket is read atomically, though a concurrent Observe may land
// between bucket reads.
type HistogramSnapshot struct {
	Bounds []int64
	Counts []int64 // len(Bounds)+1; last is overflow
	Sum    int64
	Count  int64
	// Exemplars has one entry per bucket; nil where no traced
	// observation has landed in that bucket.
	Exemplars []*Exemplar
}

// Snapshot copies the histogram's current contents.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:    append([]int64(nil), h.bounds...),
		Counts:    make([]int64, len(h.counts)),
		Sum:       h.sum.Load(),
		Count:     h.total.Load(),
		Exemplars: make([]*Exemplar, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	return s
}

// WriteText dumps every instrument as sorted plain text, one line per
// scalar and an indented block per histogram — the /metrics wire format.
func (m *Metrics) WriteText(w io.Writer) error {
	if m == nil {
		_, err := fmt.Fprintln(w, "# telemetry disabled")
		return err
	}
	snap := m.snapshot()

	for _, c := range snap.counters {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", c.name, c.v.Value()); err != nil {
			return err
		}
	}
	for _, g := range snap.gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", g.name, g.v.Value()); err != nil {
			return err
		}
	}
	for _, r := range snap.ratios {
		if _, err := fmt.Fprintf(w, "ratio %s %d/%d = %.4f\n", r.name, r.v.Hits(), r.v.Total(), r.v.Value()); err != nil {
			return err
		}
	}
	for _, h := range snap.hists {
		s := h.v.Snapshot()
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%d p50=%d p90=%d p99=%d\n",
			h.name, s.Count, s.Sum, int64(s.Quantile(0.50)), int64(s.Quantile(0.90)), int64(s.Quantile(0.99))); err != nil {
			return err
		}
		for i, b := range s.Bounds {
			if _, err := fmt.Fprintf(w, "  le %d: %d%s\n", b, s.Counts[i], exemplarSuffix(s.Exemplars[i])); err != nil {
				return err
			}
		}
		last := len(s.Counts) - 1
		if _, err := fmt.Fprintf(w, "  le +inf: %d%s\n", s.Counts[last], exemplarSuffix(s.Exemplars[last])); err != nil {
			return err
		}
	}
	return nil
}

// exemplarSuffix renders a bucket's exemplar for WriteText: the concrete
// trace/span a reader can pull up to see one observation that landed in
// the bucket (e.g. a p99 vmm.pagecopy chunk).
func exemplarSuffix(ex *Exemplar) string {
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(" # exemplar trace=%s span=%s value=%d", ex.TraceID, ex.SpanID, ex.Value)
}

// registry is the registry's instruments at one instant, each kind sorted
// by name: what every exporter walks.
type registry struct {
	counters []named[*Counter]
	gauges   []named[*Gauge]
	hists    []named[*Histogram]
	ratios   []named[*Ratio]
}

// named is one instrument with its name.
type named[T any] struct {
	name string
	v    T
}

// snapshot copies the instrument maps under m.mu; the instruments
// themselves are read afterwards, lock-free.
func (m *Metrics) snapshot() registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return registry{sortedByName(m.counters), sortedByName(m.gauges), sortedByName(m.hists), sortedByName(m.ratios)}
}

func sortedByName[T any](m map[string]T) []named[T] {
	out := make([]named[T], 0, len(m))
	for k, v := range m {
		out = append(out, named[T]{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
