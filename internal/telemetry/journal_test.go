package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// recordFixture populates every Record field so the OpEvents wire payload
// is exercised with non-zero values throughout.
func recordFixture() Record {
	return Record{
		Seq:       7,
		WallNs:    1_700_000_000_000_000_123,
		TraceID:   TraceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		SpanID:    SpanID{8, 7, 6, 5, 4, 3, 2, 1},
		Kind:      EventKeyRelease,
		EnclaveID: "counter-1",
		Host:      "127.0.0.1:7001",
		Attrs:     []Attr{{Key: "sealed_bytes", Val: "48"}},
	}
}

// TestRecordRoundTrip pins the wire format of Record — the OpEvents
// payload the fleet federator scrapes, JSON inside a hostproto Response —
// including the empty form and the rejection of every truncated encoding.
func TestRecordRoundTrip(t *testing.T) {
	big := recordFixture()
	big.Seq, big.WallNs = 1<<64-1, 1<<63-1 // not representable as JSON floats
	recs := []Record{
		{}, // zero record
		recordFixture(),
		big,
	}
	for i, in := range recs {
		full, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("encode #%d: %v", i, err)
		}
		var out Record
		if err := json.Unmarshal(full, &out); err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip changed record: %+v != %+v", out, in)
		}
		for cut := 0; cut < len(full); cut++ {
			var trunc Record
			if err := json.Unmarshal(full[:cut], &trunc); err == nil {
				t.Errorf("truncated encoding #%d (%d/%d bytes) decoded to %+v, want error", i, cut, len(full), trunc)
			}
		}
	}
}

// TestEventKindStrings pins every kind's exposition name and the unknown
// fallback; the names are the /events "kind" field and part of the audit
// line format, so renames are breaking changes.
func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EventQuiesce:       "quiesce",
		EventChannelUp:     "channel-up",
		EventKeyRelease:    "key-release",
		EventKeyReceive:    "key-receive",
		EventSelfDestroy:   "self-destroy",
		EventRestoreFinish: "restore-finish",
		EventAbort:         "abort",
		EventPrecopyRound:  "precopy-round",
		EventStopCopy:      "stop-copy",
		EventDowntime:      "downtime",
		EventEPCPressure:   "epc-pressure",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("kind %d String() = %q, want %q", k, got, s)
		}
	}
	if got := EventKind(0).String(); got != "unknown" {
		t.Errorf("EventKind(0).String() = %q, want unknown", got)
	}
}

// TestJournalCursor exercises Seq assignment and the Since cursor
// contract: incremental fetches see each record exactly once, an
// up-to-date cursor returns nothing, and Since(0) is the full journal.
func TestJournalCursor(t *testing.T) {
	j := NewJournal(16)
	if recs, next := j.Since(0); len(recs) != 0 || next != 0 {
		t.Fatalf("empty journal Since(0) = %d recs, cursor %d", len(recs), next)
	}
	for i := 0; i < 5; i++ {
		j.Append(EventQuiesce, fmt.Sprintf("enc-%d", i), Context{})
	}
	recs, cur := j.Since(0)
	if len(recs) != 5 || cur != 5 {
		t.Fatalf("Since(0) = %d recs, cursor %d, want 5, 5", len(recs), cur)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	j.Append(EventChannelUp, "enc-5", Context{})
	recs, cur = j.Since(cur)
	if len(recs) != 1 || recs[0].Kind != EventChannelUp || cur != 6 {
		t.Fatalf("incremental Since = %+v cursor %d, want one channel-up, 6", recs, cur)
	}
	if recs, cur2 := j.Since(cur); len(recs) != 0 || cur2 != cur {
		t.Fatalf("up-to-date Since = %d recs, cursor %d, want 0, %d", len(recs), cur2, cur)
	}
	if j.Len() != 6 {
		t.Fatalf("Len = %d, want 6", j.Len())
	}
}

// TestJournalCursorFromOldJournal: a scraper's cursor outlives the daemon
// it was taken from. Against the restarted daemon's fresh journal it points
// above the head; Since must hand over everything retained and pull the
// cursor back, not return nothing until Seq catches up with it.
func TestJournalCursorFromOldJournal(t *testing.T) {
	old := NewJournal(16)
	for i := 0; i < 9; i++ {
		old.Append(EventQuiesce, "before", Context{})
	}
	_, cur := old.Since(0)

	fresh := NewJournal(16)
	if recs, next := fresh.Since(cur); len(recs) != 0 || next != 0 {
		t.Fatalf("empty fresh journal Since(%d) = %d recs, cursor %d, want 0, 0", cur, len(recs), next)
	}
	fresh.Append(EventChannelUp, "after-1", Context{})
	fresh.Append(EventKeyRelease, "after-2", Context{})
	recs, next := fresh.Since(cur)
	if len(recs) != 2 || recs[0].EnclaveID != "after-1" || recs[1].EnclaveID != "after-2" || next != 2 {
		t.Fatalf("Since(%d) on a 2-record journal = %+v, cursor %d, want both records, 2", cur, recs, next)
	}
	if recs, again := fresh.Since(next); len(recs) != 0 || again != next {
		t.Fatalf("Since(%d) right after = %d recs, cursor %d", next, len(recs), again)
	}
}

// TestJournalRingEviction fills past the cap and checks the ring keeps
// exactly the newest cap records, Seq numbering stays global (not
// ring-relative), and a stale cursor skips the fallen-off gap.
func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(EventPrecopyRound, "vm", Context{})
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	recs, cur := j.Since(0)
	if len(recs) != 4 || cur != 10 {
		t.Fatalf("Since(0) = %d recs, cursor %d, want 4, 10", len(recs), cur)
	}
	for i, r := range recs {
		if r.Seq != uint64(7+i) {
			t.Errorf("record %d Seq = %d, want %d", i, r.Seq, 7+i)
		}
	}
	// A cursor pointing into the evicted region resumes at the oldest
	// retained record rather than erroring or duplicating.
	recs, _ = j.Since(2)
	if len(recs) != 4 || recs[0].Seq != 7 {
		t.Fatalf("stale-cursor Since(2) = %d recs starting at %d, want 4 from 7", len(recs), recs[0].Seq)
	}
}

// TestJournalMerge checks the federation path: merged records keep their
// origin timestamps, traces, and payloads but get the aggregate's own Seq
// stream and the origin host stamp.
func TestJournalMerge(t *testing.T) {
	agg := NewJournal(16)
	agg.Append(EventQuiesce, "local", Context{})
	src := recordFixture()
	src.Host = ""
	agg.Merge("h1:7001", []Record{src})
	recs, _ := agg.Since(0)
	if len(recs) != 2 {
		t.Fatalf("merged journal has %d records, want 2", len(recs))
	}
	m := recs[1]
	if m.Seq != 2 || m.Host != "h1:7001" {
		t.Fatalf("merged record Seq=%d Host=%q, want 2, h1:7001", m.Seq, m.Host)
	}
	if m.WallNs != src.WallNs || m.TraceID != src.TraceID || m.Kind != src.Kind || m.EnclaveID != src.EnclaveID {
		t.Fatalf("merge mutated payload: %+v", m)
	}
}

// TestJournalNil pins the nil no-op contract that lets emitters call the
// journal unconditionally on abort paths.
func TestJournalNil(t *testing.T) {
	var j *Journal
	j.Append(EventAbort, "x", Context{}, String("cause", "nil"))
	j.Merge("h", []Record{{}})
	if recs, cur := j.Since(3); recs != nil || cur != 3 {
		t.Fatalf("nil Since = %v, %d", recs, cur)
	}
	if j.Len() != 0 {
		t.Fatalf("nil Len = %d", j.Len())
	}
	var buf bytes.Buffer
	if err := j.WriteEventsJSON(&buf, 0); err != nil {
		t.Fatalf("nil WriteEventsJSON: %v", err)
	}
	var out struct {
		Next   uint64            `json:"next"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil /events payload does not parse: %v", err)
	}
}

// TestWriteEventsJSON checks the /events exposition: hex trace ids, named
// kinds, flattened attrs, and the since-cursor filter.
func TestWriteEventsJSON(t *testing.T) {
	j := NewJournal(8)
	ctx := Context{
		TraceID: TraceID{0xaa, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xbb},
		SpanID:  SpanID{1, 2, 3, 4, 5, 6, 7, 8},
	}
	j.Append(EventQuiesce, "counter-1", Context{})
	j.Append(EventKeyRelease, "counter-1", ctx, Int("sealed_bytes", 48))
	var buf bytes.Buffer
	if err := j.WriteEventsJSON(&buf, 1); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Next   uint64 `json:"next"`
		Events []struct {
			Seq     uint64            `json:"seq"`
			Trace   string            `json:"trace"`
			Span    string            `json:"span"`
			Kind    string            `json:"kind"`
			Enclave string            `json:"enclave"`
			Attrs   map[string]string `json:"attrs"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("payload does not parse: %v\n%s", err, buf.Bytes())
	}
	if out.Next != 2 || len(out.Events) != 1 {
		t.Fatalf("since=1 payload: next=%d events=%d, want 2, 1", out.Next, len(out.Events))
	}
	e := out.Events[0]
	if e.Kind != "key-release" || e.Enclave != "counter-1" || e.Seq != 2 {
		t.Fatalf("event = %+v", e)
	}
	if e.Trace != ctx.TraceID.String() || e.Span != ctx.SpanID.String() {
		t.Fatalf("trace ids not hex-joined: trace=%q span=%q", e.Trace, e.Span)
	}
	if e.Attrs["sealed_bytes"] != "48" {
		t.Fatalf("attrs = %v", e.Attrs)
	}
}

// TestJournalAppendAllocs pins the hot-path contract: an attr-free append
// into a warm ring performs zero allocations.
func TestJournalAppendAllocs(t *testing.T) {
	j := NewJournal(64)
	ctx := Context{TraceID: TraceID{1}, SpanID: SpanID{2}}
	if n := testing.AllocsPerRun(1000, func() {
		j.Append(EventPrecopyRound, "vm0", ctx)
	}); n != 0 {
		t.Fatalf("Append allocates %.1f objects/op, want 0", n)
	}
}

// BenchmarkJournalAppend measures the hot-path append (the acceptance
// budget is <=200ns/op with zero allocations).
func BenchmarkJournalAppend(b *testing.B) {
	j := NewJournal(DefaultJournalCap)
	ctx := Context{TraceID: TraceID{1}, SpanID: SpanID{2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Append(EventPrecopyRound, "vm0", ctx)
	}
}
