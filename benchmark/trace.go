package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one interval of the benchmark's own trace. Spans are recorded
// from this package only, around each call into a product layer; the
// product's tracer is not involved.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	Op      int    `json:"op"`     // operation the span belongs to
	// Derived marks a span whose bounds were reconstructed from a duration
	// the product reported (SourceReport, Incoming, LiveMigrationStats)
	// rather than clocked around a call.
	Derived bool `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the timed run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef identifies an open span; the zero value of a nil tracer is inert.
type spanRef struct {
	t  *tracer
	id int
	op int
}

// begin opens a root span for operation op.
func (t *tracer) begin(name string, op int) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open(name, -1, op)
}

func (t *tracer) open(name string, parent, op int) spanRef {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, EndNs: now, Parent: parent, Op: op})
	return spanRef{t: t, id: len(t.spans) - 1, op: op}
}

// child opens a span under s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.open(name, s.id, s.op)
}

// end closes s now.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].EndNs = now
	s.t.mu.Unlock()
}

// derived records a closed child of s covering [from, from+d), clipped to
// now, for a phase the product timed itself.
func (s spanRef) derived(name string, from time.Time, d time.Duration) {
	if s.t == nil || d <= 0 {
		return
	}
	start := from.Sub(s.t.t0).Nanoseconds()
	end := start + d.Nanoseconds()
	if now := time.Since(s.t.t0).Nanoseconds(); end > now {
		end = now
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{Name: name, StartNs: start, EndNs: end, Parent: s.id, Op: s.op, Derived: true})
	s.t.mu.Unlock()
}

// layerOf is the package a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// traceSummary is what the per-layer table needs from a finished trace.
type traceSummary struct {
	roots int
	// selfMs is each layer's summed self time: a span's duration minus the
	// part of it its children cover.
	selfMs map[string]float64
	// coverage is, per root span, the share of its duration its direct
	// children cover.
	coverage []float64
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func (t *tracer) summary() traceSummary {
	sum := traceSummary{selfMs: map[string]float64{}}
	if t == nil {
		return sum
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	for i, s := range t.spans {
		dur := s.EndNs - s.StartNs
		cov := covered(kids[i], s.StartNs, s.EndNs)
		sum.selfMs[layerOf(s.Name)] += float64(dur-cov) / 1e6
		if s.Parent < 0 {
			sum.roots++
			if dur > 0 {
				sum.coverage = append(sum.coverage, float64(cov)/float64(dur))
			}
		}
	}
	return sum
}

// write dumps the span list as JSON.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
