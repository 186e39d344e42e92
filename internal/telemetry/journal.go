package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventKind types one structured journal record. The kinds mirror the
// protocol's security-relevant points (paper Sec. V): the quiesce barrier,
// the attested migration channel coming up, the single key-release commit
// with its surrounding self-destroy, the target-side key receipt and
// restore, plus the performance-relevant VMM round boundaries and EPC
// pressure bursts. It crosses the wire inside hostproto's OpEvents
// response.
type EventKind uint8

const (
	// EventQuiesce: the source enclave reached the quiescent barrier —
	// every worker parked in its AEX trampoline (end of core.Prepare).
	EventQuiesce EventKind = iota + 1
	// EventChannelUp: the attested migration channel finished its
	// LocalAttest handshake and the session key is installed.
	EventChannelUp
	// EventKeyRelease: the commit point. The source sent MsgKey — the one
	// moment the sealed state key leaves the (already destroyed) source.
	// Exactly one such record exists per completed migration.
	EventKeyRelease
	// EventKeyReceive: the target received MsgKey and installed the key.
	EventKeyReceive
	// EventSelfDestroy: the source instance was destroyed (MarkDead),
	// strictly before EventKeyRelease per the single-instance rule.
	EventSelfDestroy
	// EventRestoreFinish: the target finished restoring and verifying the
	// enclave; the instance is live on the new host.
	EventRestoreFinish
	// EventAbort: a migration phase failed; attrs carry phase and cause.
	EventAbort
	// EventPrecopyRound: one VMM pre-copy round finished (attrs: round,
	// pages; round 0, the bulk round, also resident and guest_pages).
	EventPrecopyRound
	// EventStopCopy: the VMM stop-and-copy pass finished (attrs: pages).
	EventStopCopy
	// EventDowntime: the VM's downtime window closed (attrs: downtime).
	EventDowntime
	// EventEPCPressure: a burst of EPC evictions (attrs: evictions, free).
	EventEPCPressure
)

// String names the kind for exposition (JSON /events, audit lines).
func (k EventKind) String() string {
	switch k {
	case EventQuiesce:
		return "quiesce"
	case EventChannelUp:
		return "channel-up"
	case EventKeyRelease:
		return "key-release"
	case EventKeyReceive:
		return "key-receive"
	case EventSelfDestroy:
		return "self-destroy"
	case EventRestoreFinish:
		return "restore-finish"
	case EventAbort:
		return "abort"
	case EventPrecopyRound:
		return "precopy-round"
	case EventStopCopy:
		return "stop-copy"
	case EventDowntime:
		return "downtime"
	case EventEPCPressure:
		return "epc-pressure"
	}
	return "unknown"
}

// Record is one journal entry. It carries the distributed trace context of
// the operation that emitted it, so a journal line joins the Chrome trace
// of its migration, and it rides the wire verbatim in the OpEvents
// response (JSON; round-trip pinned in tests).
type Record struct {
	// Seq is the journal-local sequence number, monotonically increasing
	// from 1. It is the OpEvents cursor: a scraper that saw Seq n asks for
	// everything after n. Re-stamped on fleet-side Merge.
	Seq uint64
	// WallNs is the emitting host's wall clock (UnixNano) at append time.
	// Preserved across Merge so the fleet stream keeps source timestamps.
	WallNs int64
	// TraceID/SpanID join the record to its distributed trace. Zero for
	// events outside any traced operation (e.g. EPC pressure bursts).
	TraceID TraceID
	SpanID  SpanID
	Kind    EventKind
	// EnclaveID names the enclave (the host's session id, e.g.
	// "counter-1") or is empty for host-level events.
	EnclaveID string
	// Host is empty in a host-local journal; the fleet's Merge stamps the
	// origin host's address so the aggregate stream stays attributable.
	Host string
	// Attrs carry kind-specific details (round, pages, cause, ...).
	Attrs []Attr
}

// DefaultJournalCap bounds a new journal's ring. At well under ~200 bytes
// a record this caps resident cost near a megabyte while still holding
// hours of protocol events on a busy host.
const DefaultJournalCap = 8192

// Journal is a bounded ring of structured protocol events. Append is
// lock-cheap and allocation-free (one mutexed store into a preallocated
// ring), so emitters on migration hot paths and abort paths can call it
// unconditionally. A nil *Journal is a no-op on every method, mirroring
// the package's nil-tracer contract.
type Journal struct {
	mu   sync.Mutex
	ring []Record // guarded by mu; len == cap, preallocated
	next uint64   // guarded by mu; Seq of the most recent record
}

// NewJournal returns a journal holding the last n records (n <= 0 selects
// DefaultJournalCap).
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = DefaultJournalCap
	}
	return &Journal{ring: make([]Record, n)}
}

// Append files one event. The attrs slice is retained, not copied: pass a
// fresh literal (the idiom everywhere in this package) or nothing at all.
// Safe on a nil journal; never allocates beyond the caller's attrs.
func (j *Journal) Append(kind EventKind, enclaveID string, ctx Context, attrs ...Attr) {
	if j == nil {
		return
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	j.next++
	j.ring[(j.next-1)%uint64(len(j.ring))] = Record{
		Seq:       j.next,
		WallNs:    now,
		TraceID:   ctx.TraceID,
		SpanID:    ctx.SpanID,
		Kind:      kind,
		EnclaveID: enclaveID,
		Attrs:     attrs,
	}
	j.mu.Unlock()
}

// Merge files records scraped from another host's journal, stamping their
// origin and re-stamping Seq into this journal's stream (WallNs, trace
// ids, and everything else pass through). The fleet federator uses it to
// build the cluster-wide event stream.
func (j *Journal) Merge(host string, recs []Record) {
	if j == nil || len(recs) == 0 {
		return
	}
	j.mu.Lock()
	for _, r := range recs {
		j.next++
		r.Seq = j.next
		r.Host = host
		j.ring[(j.next-1)%uint64(len(j.ring))] = r
	}
	j.mu.Unlock()
}

// Since returns copies of every retained record with Seq > cursor, oldest
// first, plus the cursor to pass next time (the newest Seq seen, or the
// input cursor when nothing is new). Records that fell off the ring are
// silently skipped — the cursor contract is "at most everything since",
// bounded by the ring. Since(0) returns the whole retained journal. So
// does a cursor above the journal's head: no Seq that high was ever handed
// out here, so it was taken from a different journal — the daemon
// restarted — and holding it would drop every event until the new Seq
// caught up. The returned cursor is then this journal's head, below the
// one passed in.
func (j *Journal) Since(cursor uint64) ([]Record, uint64) {
	if j == nil {
		return nil, cursor
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor > j.next {
		cursor = 0
	}
	if j.next == cursor {
		return nil, cursor
	}
	oldest := uint64(1)
	if n := uint64(len(j.ring)); j.next > n {
		oldest = j.next - n + 1
	}
	if cursor+1 > oldest {
		oldest = cursor + 1
	}
	out := make([]Record, 0, j.next-oldest+1)
	for seq := oldest; seq <= j.next; seq++ {
		out = append(out, j.ring[(seq-1)%uint64(len(j.ring))])
	}
	return out, j.next
}

// Len returns how many records the journal currently retains.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := uint64(len(j.ring)); j.next > n {
		return int(n)
	}
	return int(j.next)
}

// eventJSON is the /events wire form of a Record: trace ids as hex
// strings, the kind by name, attrs flattened. Shared by the host's
// /events endpoint and the fleet aggregate so scrapers parse one schema.
type eventJSON struct {
	Seq     uint64            `json:"seq"`
	WallNs  int64             `json:"wall_ns"`
	Trace   string            `json:"trace,omitempty"`
	Span    string            `json:"span,omitempty"`
	Kind    string            `json:"kind"`
	Enclave string            `json:"enclave,omitempty"`
	Host    string            `json:"host,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// recordJSON converts one Record for exposition.
func recordJSON(r Record) eventJSON {
	e := eventJSON{
		Seq:     r.Seq,
		WallNs:  r.WallNs,
		Kind:    r.Kind.String(),
		Enclave: r.EnclaveID,
		Host:    r.Host,
	}
	if !r.TraceID.IsZero() {
		e.Trace = r.TraceID.String()
	}
	if !r.SpanID.IsZero() {
		e.Span = r.SpanID.String()
	}
	if len(r.Attrs) > 0 {
		e.Attrs = make(map[string]string, len(r.Attrs))
		for _, a := range r.Attrs {
			e.Attrs[a.Key] = a.Val
		}
	}
	return e
}

// WriteEventsJSON writes the records after cursor as one JSON object,
// {"next": <cursor>, "events": [...]}: the /events?since=N payload. A nil
// journal writes the empty stream, so a dark endpoint still parses.
func (j *Journal) WriteEventsJSON(w io.Writer, cursor uint64) error {
	recs, next := j.Since(cursor)
	events := make([]eventJSON, len(recs))
	for i, r := range recs {
		events[i] = recordJSON(r)
	}
	return json.NewEncoder(w).Encode(struct {
		Next   uint64      `json:"next"`
		Events []eventJSON `json:"events"`
	}{Next: next, Events: events})
}
