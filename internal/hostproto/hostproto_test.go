package hostproto

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tcb"
	"repro/internal/telemetry"
)

// wireTraceFixture builds a non-trivial span buffer so the trace-carrying
// wire messages are exercised with every field populated.
func wireTraceFixture() telemetry.WireTrace {
	return telemetry.WireTrace{
		Proc:          "sgxhost beta",
		EpochUnixNano: 1_700_000_000_000_000_000,
		Spans: []telemetry.SpanRecord{
			{
				Name:       "host.migratein",
				ID:         1,
				Track:      2,
				TraceID:    telemetry.TraceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
				SpanID:     telemetry.SpanID{8, 7, 6, 5, 4, 3, 2, 1},
				ParentSpan: telemetry.SpanID{1, 1, 1, 1, 1, 1, 1, 1},
				Start:      5 * time.Millisecond,
				Dur:        42 * time.Millisecond,
				Attrs:      []telemetry.Attr{{Key: "enclave", Val: "counter-1"}},
			},
		},
	}
}

// hostStatsFixture populates every HostStats field so the OpStats wire
// message is exercised with non-zero values throughout.
func hostStatsFixture() HostStats {
	return HostStats{
		Name:        "beta",
		Live:        []string{"counter-1", "counter-2@4"},
		Dead:        []string{"bank-3"},
		FreeEPC:     3100,
		TotalEPC:    4096,
		InflightIn:  2,
		InflightOut: 1,
	}
}

// prefixesFail checks that Read refuses every strict prefix of one encoded
// message — a stream cut anywhere is an error, never a partial value — and
// that only the empty one is a clean EOF.
func prefixesFail(t *testing.T, enc []byte, fresh func() any) {
	t.Helper()
	for cut := 0; cut < len(enc); cut++ {
		v := fresh()
		err := Read(bytes.NewReader(enc[:cut]), v)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded to %+v, want error", cut, len(enc), v)
		}
		if (cut == 0) != (err == io.EOF) {
			t.Fatalf("prefix of %d/%d bytes: %v", cut, len(enc), err)
		}
	}
}

// TestHostStatsRoundTrip pins the wire format of HostStats — the OpStats
// payload the fleet control plane polls — including the empty form and
// truncated-message rejection.
func TestHostStatsRoundTrip(t *testing.T) {
	stats := []HostStats{
		{}, // empty host
		hostStatsFixture(),
	}
	for i, in := range stats {
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatalf("encode #%d: %v", i, err)
		}
		var out HostStats
		if err := Read(bytes.NewReader(buf.Bytes()), &out); err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip changed stats: %+v != %+v", out, in)
		}
		prefixesFail(t, buf.Bytes(), func() any { return new(HostStats) })
	}
}

// TestCommandRoundTrip pins the wire format of Command: every field
// (including the typed Op, and 64-bit values JSON numbers cannot hold as
// floats) survives an encode/decode cycle, and a truncated message is
// rejected.
func TestCommandRoundTrip(t *testing.T) {
	cmds := []Command{
		{}, // zero command
		{Op: OpLaunch, Image: "counter"},
		{Op: OpCall, ID: "enclave-7", Worker: 3, Selector: 1<<64 - 1, Args: []uint64{1, 1<<53 + 1, 1<<64 - 1}},
		{Op: OpCall, ID: "enclave-7", Args: []uint64{}},
		{Op: OpList},
		{Op: OpMigrateOut, ID: "enclave-7", Target: "host-b:7001"},
		{Op: OpMigrateIn, ID: "enclave-7",
			TraceParent: "00-0102030405060708090a0b0c0d0e0f10-0807060504030201-01"},
		{Op: OpEvents, Cursor: 1<<63 + 421},
	}
	for _, in := range cmds {
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatalf("encode %q: %v", in.Op, err)
		}
		var out Command
		if err := Read(bytes.NewReader(buf.Bytes()), &out); err != nil {
			t.Fatalf("decode %q: %v", in.Op, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip changed command: %+v != %+v", out, in)
		}
		prefixesFail(t, buf.Bytes(), func() any { return new(Command) })
	}
}

// TestResponseRoundTrip pins the wire format of Response, including
// registers above 2^53 and truncated-message rejection.
func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{}, // zero response
		{ID: "enclave-7"},
		{IDs: []string{"a", "b", "c"}},
		{Regs: []uint64{0xcafe, 0xf00d, 1<<53 + 1, 1<<64 - 1}},
		{Report: "quote-json"},
		{Err: "no enclave \"x\" <&> \u2028"},
		{Report: "total=1ms", Trace: wireTraceFixture()},
		{Stats: hostStatsFixture()},
		{ // OpEvents payload: journal tail plus counter snapshot.
			Events: []telemetry.Record{{
				Seq:       9,
				WallNs:    1_700_000_000_000_000_042,
				TraceID:   telemetry.TraceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
				SpanID:    telemetry.SpanID{8, 7, 6, 5, 4, 3, 2, 1},
				Kind:      telemetry.EventKeyRelease,
				EnclaveID: "counter-1",
				Attrs:     []telemetry.Attr{{Key: "sealed_bytes", Val: "48"}},
			}},
			NextCursor: 9,
			Counters:   map[string]int64{"host.migrations.out": 3},
		},
	}
	for i, in := range resps {
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatalf("encode #%d: %v", i, err)
		}
		var out Response
		if err := Read(bytes.NewReader(buf.Bytes()), &out); err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip changed response: %+v != %+v", out, in)
		}
		prefixesFail(t, buf.Bytes(), func() any { return new(Response) })
	}
}

// TestTraceShipmentRoundTrip pins the wire format of TraceShipment — the
// migration trailer carrying the target's span buffer — including the
// always-sent empty form and truncated-message rejection.
func TestTraceShipmentRoundTrip(t *testing.T) {
	ships := []TraceShipment{
		{}, // untraced migration: empty trailer
		{Trace: wireTraceFixture()},
	}
	for i, in := range ships {
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatalf("encode #%d: %v", i, err)
		}
		var out TraceShipment
		if err := Read(bytes.NewReader(buf.Bytes()), &out); err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip changed shipment: %+v != %+v", out, in)
		}
		if i == 0 != out.Trace.Empty() {
			t.Errorf("shipment #%d Empty() = %v", i, out.Trace.Empty())
		}
		prefixesFail(t, buf.Bytes(), func() any { return new(TraceShipment) })
	}
}

// TestMachineKeyRoundTrip: the handshake's attestation key survives, and
// two messages written back to back are read back one at a time — Read
// consumes exactly its own bytes.
func TestMachineKeyRoundTrip(t *testing.T) {
	var in MachineKey
	for i := range in.Key {
		in.Key[i] = byte(255 - i)
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	one := buf.Len()
	if err := Write(&buf, Command{Op: OpMigrateIn, ID: "counter-1"}); err != nil {
		t.Fatal(err)
	}
	prefixesFail(t, buf.Bytes()[:one], func() any { return new(MachineKey) })
	var out MachineKey
	if err := Read(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed key: %x != %x", out.Key, in.Key)
	}
	var cmd Command
	if err := Read(&buf, &cmd); err != nil || cmd.ID != "counter-1" || buf.Len() != 0 {
		t.Fatalf("second message = %+v, %v, %d bytes left", cmd, err, buf.Len())
	}
}

// writeCounter counts Write calls.
type writeCounter int

func (w *writeCounter) Write(p []byte) (int, error) { *w++; return len(p), nil }

// TestWriteIsOneWrite: prefix and body leave together, one write(2) and one
// segment on a socket, whatever the message.
func TestWriteIsOneWrite(t *testing.T) {
	for _, v := range []any{Command{Op: OpStats}, Response{Trace: wireTraceFixture()}, MachineKey{}, TraceShipment{}} {
		var w writeCounter
		if err := Write(&w, v); err != nil || w != 1 {
			t.Errorf("%T: %d writes, %v", v, w, err)
		}
	}
}

// TestFieldTolerance: a peer one version ahead sends a field this side does
// not know and omits one it does; the message still decodes, unknown
// ignored and missing zero — the property gob gave the protocol.
func TestFieldTolerance(t *testing.T) {
	body := `{"Op":"call","ID":"counter-1","Priority":7,"Nested":{"a":[1,2]}}`
	enc := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
	var cmd Command
	if err := Read(bytes.NewReader(enc), &cmd); err != nil {
		t.Fatal(err)
	}
	if want := (Command{Op: OpCall, ID: "counter-1"}); !reflect.DeepEqual(cmd, want) {
		t.Fatalf("decoded %+v, want %+v", cmd, want)
	}
}

// silentReader hands out its bytes and then blocks until closed, the way a
// peer that announces a length and goes quiet looks to Read. waiting is
// closed when Read comes back for more.
type silentReader struct {
	data            []byte
	waiting, closed chan struct{}
}

func (r *silentReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		close(r.waiting)
		<-r.closed
		return 0, io.ErrClosedPipe
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadHostileLength: the length prefix comes from an unauthenticated
// peer. One over the cap is refused outright; one inside it followed by
// silence has cost next to nothing when the connection's deadline fires,
// because the body buffer grows with the bytes that arrive, not with the
// number announced. Gob sized a buffer of up to 1 GiB from such a prefix.
//
// TotalAlloc is process-wide, so another goroutine's allocations can land
// in a measured window; each call is measured a few times and the least
// figure is held to the bound. Noise only ever adds, so a Read that really
// allocates more than the bound fails every repetition and still fails.
func TestReadHostileLength(t *testing.T) {
	const reps = 5
	measure := func(f func()) uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < reps; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	var resp Response
	got := measure(func() {
		err := Read(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, '{', '}'}), &resp)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("0xFFFFFFFF prefix: %v", err)
		}
	})
	if got > 4<<10 {
		t.Fatalf("refusing a 0xFFFFFFFF prefix allocated %d bytes", got)
	}

	// A fresh silent peer for each repetition, made outside the windows.
	peers := make(chan *silentReader, reps)
	for i := 0; i < reps; i++ {
		peers <- &silentReader{
			data:    append(binary.LittleEndian.AppendUint32(nil, MaxMessage), `{"Err":"`...),
			waiting: make(chan struct{}),
			closed:  make(chan struct{}),
		}
	}
	got = measure(func() {
		r := <-peers
		errc := make(chan error, 1)
		go func() { errc <- Read(r, &resp) }()
		<-r.waiting     // Read wants the bytes it was promised
		close(r.closed) // the read deadline fires
		if err := <-errc; !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("Read after the peer went silent: %v", err)
		}
	})
	if got > 4<<10 {
		t.Fatalf("a %d byte prefix followed by silence allocated %d bytes", MaxMessage, got)
	}

	// Write holds itself to the bound it reads with.
	if err := Write(io.Discard, Response{Report: strings.Repeat("x", MaxMessage)}); err == nil {
		t.Fatal("Write sent a message over the cap")
	}
}

// TestReadRefusesGob: what a daemon or client from before this codec sends
// first — gob's type descriptors — is an error, not a value and not a
// panic.
func TestReadRefusesGob(t *testing.T) {
	for _, v := range []any{
		Command{Op: OpStats},
		Response{Stats: hostStatsFixture()},
		MachineKey{},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		var cmd Command
		if err := Read(&buf, &cmd); err == nil {
			t.Fatalf("gob-encoded %T decoded to %+v", v, cmd)
		}
	}
}

// readSeeds are the FuzzRead seeds: one valid message of each type, then
// malformed ones.
func readSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, v := range []any{
		Command{Op: OpCall, ID: "enclave-7", Selector: 1<<64 - 1, Args: []uint64{1, 2}},
		Response{Regs: []uint64{1<<53 + 1}, Stats: hostStatsFixture(), Trace: wireTraceFixture(),
			Counters: map[string]int64{"host.migrations.out": 3}},
		MachineKey{Key: tcb.PublicKey{1, 2, 3}},
		TraceShipment{},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, v); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return append(seeds,
		seeds[0][:len(seeds[0])-3],     // truncated body
		[]byte{0xFF, 0xFF, 0xFF, 0xFF}, // hostile length
		[]byte{0, 0, 0, 0},             // empty body
		[]byte{2, 0, 0, 0, '[', ']'},   // JSON, wrong shape
		[]byte{12, 0, 0, 0, '{', '"', 'R', 'e', 'g', 's', '"', ':', '[', '-', '1', ']', '}'}, // out-of-range register
	)
}

// FuzzRead hammers Read with arbitrary streams, decoding into the type with
// the most shapes in it: it must never panic, never take more than the
// stream holds, and whatever it accepts must survive a re-encode.
func FuzzRead(f *testing.F) {
	for _, seed := range readSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var resp Response
		r := bytes.NewReader(b)
		if err := Read(r, &resp); err != nil {
			return
		}
		if n := binary.LittleEndian.Uint32(b); n > MaxMessage || int(n) != len(b)-4-r.Len() {
			t.Fatalf("accepted a %d byte message, consumed %d of %d", n, len(b)-r.Len(), len(b))
		}
		var buf bytes.Buffer
		if err := Write(&buf, resp); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var again Response
		if err := Read(&buf, &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("re-encode changed response: %+v != %+v", again, resp)
		}
	})
}
