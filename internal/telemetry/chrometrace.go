package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array. Timestamps and durations are microseconds; "X" is a complete
// (begin+duration) event, "B" a begin without an end (a still-running
// span), "M" metadata such as process and thread names.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	ID   string            `json:"id,omitempty"` // flow-event binding ("s"/"f" pairs)
	BP   string            `json:"bp,omitempty"` // flow binding point; "e" = enclosing slice
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  uint64            `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// WireTrace is a span buffer in transit between processes: the target
// host's contribution to a migration trace, shipped back to the source at
// commit/abort and folded into the local tracer with Adopt. It is part of
// the hostproto wire surface (JSON inside Response and the TraceShipment
// message).
type WireTrace struct {
	// Proc names the originating process ("sgxhost tokyo"); the merged
	// Chrome trace renders each Proc as its own process group.
	Proc string
	// EpochUnixNano is the sender's tracer epoch in Unix nanoseconds.
	// Span Starts are offsets from it; Adopt rebases them onto the local
	// epoch, which assumes the hosts' wall clocks are comparable (NTP) —
	// fine for the localhost and same-rack deployments this targets.
	EpochUnixNano int64
	Spans         []SpanRecord
}

// Empty reports whether the shipment carries no spans.
func (wt WireTrace) Empty() bool { return len(wt.Spans) == 0 }

// ExportTrace copies the finished spans of one trace for shipment to
// another process. A nil tracer or zero id exports an empty WireTrace.
// Live (unfinished) spans are not exported: shipment happens at
// commit/abort, after the sender ended its spans.
func (t *Tracer) ExportTrace(id TraceID) WireTrace {
	if t == nil || id.IsZero() {
		return WireTrace{}
	}
	wt := WireTrace{EpochUnixNano: t.epoch.UnixNano()}
	t.mu.Lock()
	for _, r := range t.doneLocked() {
		if r.TraceID == id {
			wt.Spans = append(wt.Spans, r)
		}
	}
	t.mu.Unlock()
	return wt
}

// Adopt folds a shipped span buffer into this tracer's finished-span
// buffer, rebasing Starts from the remote epoch onto the local one and
// remapping the remote tracks onto fresh local tracks (remote track
// numbers would collide with local ones). The remote spans' local ID/
// Parent handles are zeroed — they index the remote tracer's allocation
// order, which means nothing here; cross-process structure lives in the
// SpanID/ParentSpan links, which are preserved.
//
// Adoption deduplicates by SpanID: a record whose SpanID is already in
// the buffer is skipped. Peers re-export a trace's whole buffer on every
// request (ExportTrace keeps no shipped watermark), so without this a
// client merging several responses — or a source host that both adopted
// the target's TraceShipment and later re-requests the target — would
// duplicate every span. Safe on a nil tracer.
func (t *Tracer) Adopt(wt WireTrace) {
	if t == nil || wt.Empty() {
		return
	}
	delta := time.Duration(wt.EpochUnixNano - t.epoch.UnixNano())
	t.mu.Lock()
	defer t.mu.Unlock()
	done := t.doneLocked()
	seen := make(map[SpanID]bool, len(done))
	for _, r := range done {
		seen[r.SpanID] = true
	}
	trackMap := make(map[uint64]uint64)
	for _, r := range wt.Spans {
		if !r.SpanID.IsZero() && seen[r.SpanID] {
			continue
		}
		seen[r.SpanID] = true
		nt, ok := trackMap[r.Track]
		if !ok {
			nt = t.tracks.Add(1)
			trackMap[r.Track] = nt
		}
		r.Track = nt
		r.ID = 0
		r.Parent = 0
		r.Start += delta
		if r.Proc == "" {
			r.Proc = wt.Proc
		}
		t.appendDoneLocked(r)
	}
}

// WriteChromeTrace writes every span — completed and still-running — in
// the Chrome trace-event JSON format, loadable in chrome://tracing and
// https://ui.perfetto.dev. Tracks map to trace "threads": Child spans
// share the parent's row, Fork spans get their own, so phase overlap
// (dump vs. pre-copy) is visible as horizontally overlapping bars on
// separate rows. Spans merged in from other processes (Adopt) render
// under their own process group, named after WireTrace.Proc, so a merged
// migration trace shows source, wire, and target tracks side by side.
// A nil tracer writes an empty, valid trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if t == nil {
		return writeJSON(w, trace)
	}

	done, live := t.snapshot()
	recs := make([]SpanRecord, 0, len(done)+len(live))
	recs = append(recs, done...)
	for _, s := range live {
		recs = append(recs, s.current())
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		return recs[i].ID < recs[j].ID
	})

	// Local spans render as pid 1 "sgxmig"; each remote Proc gets the next
	// pid, assigned in sorted order so output is deterministic.
	pids := map[string]uint64{"": chromePID}
	var procs []string
	for _, r := range recs {
		if _, ok := pids[r.Proc]; !ok {
			pids[r.Proc] = 0
			procs = append(procs, r.Proc)
		}
	}
	sort.Strings(procs)
	for i, p := range procs {
		pids[p] = chromePID + 1 + uint64(i)
	}
	trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: chromePID,
		Args: map[string]string{"name": "sgxmig"},
	})
	for _, p := range procs {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pids[p],
			Args: map[string]string{"name": p},
		})
	}
	// Name each track after the first span that opened it, so Perfetto's
	// row labels read "vmm.livemigrate", "vmm.dump", ... instead of
	// bare numbers.
	type trackKey struct {
		pid   uint64
		track uint64
	}
	trackNamed := make(map[trackKey]bool)
	for _, r := range recs {
		k := trackKey{pids[r.Proc], r.Track}
		if trackNamed[k] {
			continue
		}
		trackNamed[k] = true
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: k.pid, TID: r.Track,
			Args: map[string]string{"name": r.Name},
		})
	}
	// Index spans by SpanID so links can resolve their peer's slice; a
	// link whose peer is absent (not shipped here) still shows in Args.
	bySpan := make(map[SpanID]SpanRecord, len(recs))
	for _, r := range recs {
		if !r.SpanID.IsZero() {
			bySpan[r.SpanID] = r
		}
	}
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Name,
			Cat:  "sgxmig",
			Ph:   "X",
			Ts:   float64(r.Start.Nanoseconds()) / 1e3,
			Dur:  float64(r.Dur.Nanoseconds()) / 1e3,
			PID:  pids[r.Proc],
			TID:  r.Track,
		}
		if r.Dur == 0 {
			ev.Ph = "B" // still running at export time
		}
		ev.Args = make(map[string]string, len(r.Attrs)+4)
		for _, a := range r.Attrs {
			ev.Args[a.Key] = a.Val
		}
		if r.Parent != 0 {
			ev.Args["parent_span"] = strconv.FormatUint(r.Parent, 10)
		}
		if !r.TraceID.IsZero() {
			ev.Args["trace_id"] = r.TraceID.String()
		}
		if !r.SpanID.IsZero() {
			ev.Args["span_id"] = r.SpanID.String()
		}
		if !r.ParentSpan.IsZero() {
			ev.Args["parent_span_id"] = r.ParentSpan.String()
		}
		for i, l := range r.Links {
			ev.Args["link_"+strconv.Itoa(i)] = l.SpanID.String()
		}
		if len(ev.Args) == 0 {
			ev.Args = nil
		}
		trace.TraceEvents = append(trace.TraceEvents, ev)

		// A link renders as a flow arrow from the linked span ("s", at its
		// end) into this one ("f" bound to the enclosing slice, at its
		// start) when the peer's record is in this export.
		for _, l := range r.Links {
			peer, ok := bySpan[l.SpanID]
			if !ok || r.SpanID.IsZero() {
				continue
			}
			flowID := l.SpanID.String() + "-" + r.SpanID.String()
			trace.TraceEvents = append(trace.TraceEvents,
				chromeEvent{
					Name: "link", Cat: "sgxmig.flow", Ph: "s", ID: flowID,
					Ts:  float64((peer.Start + peer.Dur).Nanoseconds()) / 1e3,
					PID: pids[peer.Proc], TID: peer.Track,
				},
				chromeEvent{
					Name: "link", Cat: "sgxmig.flow", Ph: "f", BP: "e", ID: flowID,
					Ts:  float64(r.Start.Nanoseconds()) / 1e3,
					PID: pids[r.Proc], TID: r.Track,
				})
		}
	}
	return writeJSON(w, trace)
}

// current returns the span's record as of now; Dur stays zero while the
// span is running.
func (s *Span) current() SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordLocked()
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}
