package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// twoHostTrace simulates the client→source→target shipment chain in one
// process: a client roots the trace, the "target" tracer opens spans under
// the propagated context, exports them, and the client adopts the buffer.
func twoHostTrace(t *testing.T) (*Tracer, TraceID) {
	t.Helper()
	client := NewSeeded(100)
	target := NewSeeded(200)

	root := client.Begin("client.migrate")
	ctx, err := Extract(root.Context().Inject())
	if err != nil {
		t.Fatal(err)
	}

	in := target.BeginRemote("host.migratein", ctx)
	restore := in.Child("core.restore")
	restore.End()
	in.End()

	wt := target.ExportTrace(ctx.TraceID)
	wt.Proc = "sgxhost target"
	client.Adopt(wt)
	root.End()
	return client, ctx.TraceID
}

func TestExportAdoptMerge(t *testing.T) {
	client, traceID := twoHostTrace(t)
	recs := client.Completed()
	if len(recs) != 3 {
		t.Fatalf("merged buffer has %d spans, want 3: %+v", len(recs), recs)
	}
	names := map[string]SpanRecord{}
	for _, r := range recs {
		if r.TraceID != traceID {
			t.Errorf("span %q TraceID = %v, want %v", r.Name, r.TraceID, traceID)
		}
		names[r.Name] = r
	}
	for _, want := range []string{"client.migrate", "host.migratein", "core.restore"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("merged trace missing span %q; have %v", want, names)
		}
	}
	// Cross-process parentage survives via SpanID links even though local
	// ID/Parent handles were zeroed on adoption.
	if got, want := names["host.migratein"].ParentSpan, names["client.migrate"].SpanID; got != want {
		t.Errorf("host.migratein ParentSpan = %v, want client span %v", got, want)
	}
	if names["host.migratein"].ID != 0 || names["host.migratein"].Parent != 0 {
		t.Errorf("adopted span kept remote-local handles: %+v", names["host.migratein"])
	}
	if got := names["host.migratein"].Proc; got != "sgxhost target" {
		t.Errorf("adopted span Proc = %q, want %q", got, "sgxhost target")
	}
	if got := names["client.migrate"].Proc; got != "" {
		t.Errorf("local span Proc = %q, want empty", got)
	}
	// Adopted tracks were remapped onto fresh local tracks.
	if names["host.migratein"].Track == names["client.migrate"].Track {
		t.Errorf("adopted span shares a local track")
	}
}

func TestMergedChromeTraceProcesses(t *testing.T) {
	client, traceID := twoHostTrace(t)
	var buf bytes.Buffer
	if err := client.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  uint64            `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	procNames := map[string]uint64{}
	traceIDs := map[string]bool{}
	spansByName := map[string]uint64{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.Args["name"]] = ev.PID
		}
		if ev.Ph == "X" || ev.Ph == "B" {
			if id := ev.Args["trace_id"]; id != "" {
				traceIDs[id] = true
			}
			spansByName[ev.Name] = ev.PID
		}
	}
	if len(traceIDs) != 1 || !traceIDs[traceID.String()] {
		t.Fatalf("merged trace has trace_ids %v, want exactly {%s}", traceIDs, traceID)
	}
	localPID, ok := procNames["sgxmig"]
	if !ok {
		t.Fatalf("missing sgxmig process metadata: %v", procNames)
	}
	targetPID, ok := procNames["sgxhost target"]
	if !ok {
		t.Fatalf("missing target process metadata: %v", procNames)
	}
	if localPID == targetPID {
		t.Fatalf("local and target share pid %d", localPID)
	}
	if got := spansByName["client.migrate"]; got != localPID {
		t.Errorf("client.migrate on pid %d, want %d", got, localPID)
	}
	if got := spansByName["host.migratein"]; got != targetPID {
		t.Errorf("host.migratein on pid %d, want %d", got, targetPID)
	}
	if got := spansByName["core.restore"]; got != targetPID {
		t.Errorf("core.restore on pid %d, want %d", got, targetPID)
	}
}

func TestExportTraceFilters(t *testing.T) {
	tr := NewSeeded(11)
	a := tr.Begin("a")
	b := tr.Begin("b")
	a.End()
	b.End()
	wt := tr.ExportTrace(a.Context().TraceID)
	if len(wt.Spans) != 1 || wt.Spans[0].Name != "a" {
		t.Fatalf("ExportTrace leaked foreign spans: %+v", wt.Spans)
	}
	if !tr.ExportTrace(TraceID{}).Empty() {
		t.Fatalf("ExportTrace(zero) not empty")
	}
	var nilT *Tracer
	if !nilT.ExportTrace(a.Context().TraceID).Empty() {
		t.Fatalf("nil tracer ExportTrace not empty")
	}
	nilT.Adopt(wt) // must not panic
}

// TestAdoptDeduplicates covers the re-export pattern of the live system:
// a host re-exports its entire per-trace buffer on every request, so the
// client adopts overlapping shipments and must keep each span once.
func TestAdoptDeduplicates(t *testing.T) {
	client := NewSeeded(100)
	target := NewSeeded(200)

	root := client.Begin("client.migrate")
	ctx, err := Extract(root.Context().Inject())
	if err != nil {
		t.Fatal(err)
	}
	in := target.BeginRemote("host.migratein", ctx)
	in.Child("core.restore").End()
	in.End()

	first := target.ExportTrace(ctx.TraceID)
	first.Proc = "sgxhost target"
	client.Adopt(first)
	before := len(client.Completed())

	// The same buffer arrives again (a later request to the same host
	// re-exports everything), plus one genuinely new span.
	target.BeginRemote("host.list", ctx).End()
	second := target.ExportTrace(ctx.TraceID)
	second.Proc = "sgxhost target"
	client.Adopt(second)

	recs := client.Completed()
	if got, want := len(recs), before+1; got != want {
		t.Fatalf("after overlapping Adopt: %d spans, want %d: %+v", got, want, recs)
	}
	counts := map[SpanID]int{}
	for _, r := range recs {
		counts[r.SpanID]++
	}
	for id, n := range counts {
		if n != 1 {
			t.Errorf("span %v adopted %d times, want 1", id, n)
		}
	}
	root.End()
}

// TestSpanCapBoundsBuffer checks that the finished-span buffer cannot grow
// without bound: beyond the cap the oldest records are evicted, newest
// kept, and adopted spans obey the same bound.
func TestSpanCapBoundsBuffer(t *testing.T) {
	tr := NewSeeded(7)
	tr.SetSpanCap(8)
	for i := 0; i < 50; i++ {
		tr.Begin("local").End()
	}
	recs := tr.Completed()
	if len(recs) != 8 {
		t.Fatalf("capped buffer holds %d spans, want 8", len(recs))
	}
	// End order is preserved and the survivors are the newest: strictly
	// increasing Start offsets ending at the most recent span.
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("eviction broke End order: %v after %v", recs[i].Start, recs[i-1].Start)
		}
	}

	// Adopted shipments are bounded too.
	remote := NewSeeded(9)
	for i := 0; i < 50; i++ {
		remote.Begin("remote").End()
	}
	wt := WireTrace{EpochUnixNano: 0, Spans: remote.Completed(), Proc: "peer"}
	tr.Adopt(wt)
	if got := len(tr.Completed()); got != 8 {
		t.Fatalf("capped buffer holds %d spans after Adopt, want 8", got)
	}

	// A fresh tracer starts with the default cap, not unbounded.
	def := NewSeeded(1)
	def.mu.Lock()
	defCap := def.maxDone
	def.mu.Unlock()
	if defCap != DefaultSpanCap {
		t.Fatalf("new tracer cap = %d, want DefaultSpanCap %d", defCap, DefaultSpanCap)
	}
	// SetSpanCap(0) lifts the bound.
	tr.SetSpanCap(0)
	for i := 0; i < 50; i++ {
		tr.Begin("more").End()
	}
	if got := len(tr.Completed()); got != 58 {
		t.Fatalf("uncapped buffer holds %d spans, want 58", got)
	}
}

func TestHTTPHandlerPprof(t *testing.T) {
	h := Handler(New(), NewMetrics(), NewJournal(0))
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("goroutine")) {
		t.Fatalf("pprof index missing profile listing:\n%s", rec.Body.String())
	}
}

// TestAdoptKeepsTheLocalEpoch: adopting a trace from a tracer created
// earlier rebases the adopted spans onto this tracer's epoch and leaves the
// epoch alone, so a span begun after the adopt starts no later than the
// wall time since its own tracer was created.
func TestAdoptKeepsTheLocalEpoch(t *testing.T) {
	older := NewSeeded(300)
	sp := older.Begin("host.migratein")
	sp.End()
	time.Sleep(20 * time.Millisecond)

	created := time.Now()
	tr := NewSeeded(301)
	tr.Adopt(older.ExportTrace(sp.Context().TraceID))
	after := tr.Begin("client.after")
	after.End()
	bound := time.Since(created)
	recs := tr.ByName("client.after")
	if len(recs) != 1 {
		t.Fatalf("%d client.after records", len(recs))
	}
	if recs[0].Start > bound {
		t.Fatalf("span begun after the adopt starts at %v, but the tracer is only %v old", recs[0].Start, bound)
	}
	if adopted := tr.ByName("host.migratein"); len(adopted) != 1 || adopted[0].Start >= 0 {
		t.Fatalf("adopted span %+v: want one, starting before this tracer's epoch", adopted)
	}
}

// TestAdoptConcurrentWithBegin adopts peer traces while spans begin and end
// on the same tracer, for the race detector: Adopt writes only under the
// tracer's lock, and what spans read lock-free is set at construction.
func TestAdoptConcurrentWithBegin(t *testing.T) {
	peer := NewSeeded(400)
	var ids []TraceID
	for i := 0; i < 8; i++ {
		sp := peer.Begin("peer.span")
		sp.End()
		ids = append(ids, sp.Context().TraceID)
	}
	tr := NewSeeded(401)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			tr.Adopt(peer.ExportTrace(id))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			tr.Begin("local.span").End()
		}
	}()
	wg.Wait()
	if got := len(tr.ByName("local.span")) + len(tr.ByName("peer.span")); got != 64+len(ids) {
		t.Fatalf("%d spans after the concurrent adopts, want %d", got, 64+len(ids))
	}
}
