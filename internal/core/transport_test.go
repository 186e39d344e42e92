package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/enclave"
)

// TestMessageRoundTrip pins the wire format of Message — one FrameCtl frame
// through the codec every frame uses: every field of every message kind
// survives, an empty Blob arrives nil, and the frame is exactly the ten
// header bytes plus the blob.
func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Kind: MsgImage, Blob: []byte{0x01, 0x02, 0x03}},
		{Kind: MsgHello, Blob: []byte("quote||dhpub||nonce")},
		{Kind: MsgChannel, Blob: bytes.Repeat([]byte{0xA5}, 4096)},
		{Kind: MsgChannelOK},
		{Kind: MsgCheckpoint, Blob: make([]byte, maxCtlBlob)},
		{Kind: MsgCheckpoint, Frames: 3},
		{Kind: MsgCheckpoint, Frames: 1<<32 - 1},
		{Kind: MsgKey, Blob: []byte{}},
		{Kind: MsgDone},
		{Kind: MsgAbort, Blob: []byte("cancelled")},
		{}, // zero message
	}
	for _, in := range msgs {
		f, err := ctlFrame(in)
		if err != nil {
			t.Fatalf("ctlFrame kind %d: %v", in.Kind, err)
		}
		enc := AppendFrame(nil, &f)
		if want := 4 + ctlHeader + len(in.Blob); len(enc) != want {
			t.Fatalf("kind %d encodes to %d bytes, want %d", in.Kind, len(enc), want)
		}
		got, n, err := DecodeFrame(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode kind %d: consumed %d of %d, %v", in.Kind, n, len(enc), err)
		}
		if got.Kind != FrameCtl {
			t.Fatalf("kind %d decoded as a %s frame", in.Kind, got.Kind)
		}
		want := in
		if len(want.Blob) == 0 {
			want.Blob = nil
		}
		if out := got.message(); !reflect.DeepEqual(out, want) {
			t.Errorf("round trip changed message: %+v != %+v", out, want)
		}
	}
	// One byte over the bound is refused by the sender and by both decoders.
	big := Message{Kind: MsgCheckpoint, Blob: make([]byte, maxCtlBlob+1)}
	if _, err := ctlFrame(big); err == nil {
		t.Error("ctlFrame accepted an oversized blob")
	}
	enc := AppendFrame(nil, &PageFrame{Kind: FrameCtl, Msg: big.Kind, Data: big.Blob})
	if _, _, err := DecodeFrame(enc); err == nil {
		t.Error("DecodeFrame accepted an oversized control blob")
	}
	if _, err := ReadFrame(bytes.NewReader(enc)); err == nil {
		t.Error("ReadFrame accepted an oversized control blob")
	}
	for _, tr := range pipeAndConn(t) {
		if err := tr.src.Send(big); err == nil {
			t.Errorf("%s: Send accepted an oversized blob", tr.name)
		}
	}
}

// TestMessageTruncatedFrame ensures every strict prefix of a Message's
// encoding is rejected by both decoders instead of yielding a short or zero
// message.
func TestMessageTruncatedFrame(t *testing.T) {
	for _, in := range []Message{
		{Kind: MsgCheckpoint, Blob: bytes.Repeat([]byte{1}, 1024)},
		{Kind: MsgDone},
	} {
		f, err := ctlFrame(in)
		if err != nil {
			t.Fatal(err)
		}
		full := AppendFrame(nil, &f)
		for cut := 0; cut < len(full); cut++ {
			if out, _, err := DecodeFrame(full[:cut]); err == nil {
				t.Fatalf("DecodeFrame: prefix of %d/%d bytes decoded to %+v", cut, len(full), out)
			}
			if out, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("ReadFrame: prefix of %d/%d bytes decoded to %+v", cut, len(full), out)
			}
		}
	}
	// A body shorter than the control header, with a length prefix that says so.
	short := append(binary.LittleEndian.AppendUint32(nil, 3), byte(FrameCtl), byte(MsgDone), 0)
	if _, _, err := DecodeFrame(short); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("3-byte control body: DecodeFrame = %v, want ErrFrameTruncated", err)
	}
}

// transportPair is one connected Transport pair under test.
type transportPair struct {
	name     string
	src, dst Transport
}

// pipeAndConn returns an in-process pipe and a loopback TCP transport pair,
// closed with the test: what must hold on one stream must hold on both.
func pipeAndConn(t *testing.T) []transportPair {
	t.Helper()
	a, b := NewPipe()
	cli, srv := tcpPair(t)
	pairs := []transportPair{{"pipe", a, b}, {"conn", NewConnTransport(cli), NewConnTransport(srv)}}
	t.Cleanup(func() {
		for _, p := range pairs {
			p.src.Close()
			p.dst.Close()
		}
	})
	return pairs
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t testing.TB) (cli, srv net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cli, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, ok := <-accepted
	if !ok {
		cli.Close()
		t.Fatal("accept failed")
	}
	return cli, srv
}

// TestPipeCountsWhatConnSends: the pipe hands messages across as values
// but accounts for them as the frames a socket would carry — the same
// traffic reads the same BytesSent on both transports, to the byte.
func TestPipeCountsWhatConnSends(t *testing.T) {
	sent := map[string]int64{}
	for _, tr := range pipeAndConn(t) {
		for _, m := range []Message{{Kind: MsgHello, Blob: make([]byte, 288)}, {Kind: MsgCheckpoint, Frames: 1}} {
			if err := tr.src.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.src.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, 1000)}); err != nil {
			t.Fatal(err)
		}
		sent[tr.name] = tr.src.(ByteCounter).BytesSent()
	}
	if want := int64(2*(4+ctlHeader) + 288 + 4 + 2 + 1000); sent["pipe"] != want || sent["conn"] != want {
		t.Fatalf("BytesSent: pipe %d, conn %d, want %d", sent["pipe"], sent["conn"], want)
	}
}

// TestWrongFrameClassRefused: the stream is ordered and each side knows
// whether a message or a bulk frame comes next. The other class is a
// protocol error on both transports, never a value of the wrong shape.
func TestWrongFrameClassRefused(t *testing.T) {
	for _, tr := range pipeAndConn(t) {
		go func() {
			tr.src.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, 128)})
		}()
		if m, err := tr.dst.Recv(); !errors.Is(err, errWantMessage) {
			t.Errorf("%s: Recv of a bulk frame = %+v, %v", tr.name, m, err)
		}
	}
	for _, tr := range pipeAndConn(t) {
		go func() {
			tr.src.Send(Message{Kind: MsgDone, Blob: []byte("x")})
		}()
		if f, err := tr.dst.RecvFrame(); !errors.Is(err, errWantFrame) {
			t.Errorf("%s: RecvFrame of a message = %+v, %v", tr.name, f, err)
		}
	}
}

// allocatedBy returns the bytes f allocates, on this goroutine and any it
// waits for.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBulkSegmentBufferReused: a bulk segment's buffer is asked for at two
// sizes a few bytes apart — the bound on its encoding when it is written,
// the exact body length when it is read back — and a pooled buffer of the
// smaller size used to be dropped by the larger request. With both in one
// size class, a 16-segment round trip over a pool stocked with buffers of
// the reader's size allocates nothing segment-sized. The receiver keeps
// every segment it reads as its checkpoint window until the restore, so the
// stock covers all of them at once, plus what the sender holds in flight.
func TestBulkSegmentBufferReused(t *testing.T) {
	const segments = 16
	seg := PageFrame{Kind: FrameBlob, Data: make([]byte, bulkSegment)}
	body, bound := len(AppendFrame(nil, &seg))-4, encodedFrameSize(&seg)
	if body >= bound || bufClass(body) != bufClass(bound) {
		t.Fatalf("a segment's %d-byte body and %d-byte encoding bound fall in classes %d and %d", body, bound, bufClass(body), bufClass(bound))
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	blob := make([]byte, segments*bulkSegment)
	req := enclave.NewSharedRegion(enclave.SharedCkptOff)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	for _, tr := range pipeAndConn(t) {
		// Every segment the receiver holds, and more than the pipe's queue
		// lets the sender run ahead by.
		stock := make([][]byte, segments+4)
		for i := range stock {
			stock[i] = GetBuf(body)
		}
		for _, b := range stock {
			PutBuf(b)
		}
		got := allocatedBy(func() {
			done := make(chan error, 1)
			go func() { done <- sendBulk(tr.src, Message{Kind: MsgCheckpoint, Blob: blob}) }()
			win, n, err := recvWindow(tr.dst, req, len(blob))
			if sErr := <-done; err != nil || sErr != nil || n != len(blob) {
				t.Fatalf("%s: round trip: recv %v, send %v, %d bytes", tr.name, err, sErr, n)
			}
			win.release()
		})
		if got > bulkSegment/2 {
			t.Errorf("%s: the round trip of %d bytes allocated %d bytes", tr.name, len(blob), got)
		}
	}
}

// TestSmallBuffersDoNotStarveSegments: small frames and 256 KiB page chunks
// share the buffer pool when a live migration's channel legs run beside its
// page stream. A request the pooled buffer is too small for loses that
// buffer and allocates, so with one pool every small buffer returned cost a
// later segment-sized request its reuse. Stock both kinds, small ones last:
// the segment-sized requests must all be served from the pool.
func TestSmallBuffersDoNotStarveSegments(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	const n = 8
	var big, small [n][]byte
	for i := range big {
		big[i], small[i] = GetBuf(bulkSegment), GetBuf(bulkSegment/5)
	}
	for i := range big {
		PutBuf(big[i])
	}
	for i := range small {
		PutBuf(small[i])
	}
	got := allocatedBy(func() {
		for i := range big {
			big[i] = GetBuf(bulkSegment)
		}
	})
	if got >= bulkSegment {
		t.Errorf("%d segment-sized requests over a pool holding %d such buffers allocated %d bytes", n, n, got)
	}
}

// TestCaptureBufferServesEncodedFrame: a 64-page capture buffer and the
// encoding of the raw frame made from it share the bulk pool, and the
// encoding is a few hundred bytes longer. With capacities rounded to whole
// pages, the encoding's request dropped a pooled capture buffer and
// allocated; with one capacity for the pool, the buffer serves it.
func TestCaptureBufferServesEncodedFrame(t *testing.T) {
	pages := make([]int, 64)
	for i := range pages {
		pages[i] = i
	}
	f := NewRawFrame(pages)
	capture, encoded := len(f.Data), encodedFrameSize(f)
	f.Release()
	if encoded <= capture || poolFor(capture) != poolFor(encoded) {
		t.Fatalf("a %d-byte capture and its %d-byte encoding do not share a pool", capture, encoded)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// Two collections empty the pool (the second its victim cache), so the
	// capture buffer is a new one, sized as a capture request sizes it.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	PutBuf(GetBuf(capture))
	got := allocatedBy(func() { PutBuf(GetBuf(encoded)) })
	if got >= PageSize {
		t.Errorf("a %d-byte request over a pooled %d-byte capture buffer allocated %d bytes", encoded, capture, got)
	}
}

// TestRecvHostileLength: the length prefix and kind byte come from an
// unauthenticated peer. A receiver waiting for a message refuses a length
// no message can have — and a bulk frame, whatever its length — from the
// five header bytes, and a peer that announces a body and goes silent has
// bought nothing when the connection dies. Gob used to size a buffer of up
// to 1 GiB from such a prefix. The first bytes of a gob stream, what a
// daemon from before this codec would send, are refused too.
func TestRecvHostileLength(t *testing.T) {
	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(Message{Kind: MsgHello, Blob: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	u32 := func(n uint32, rest ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), rest...)
	}
	for _, tc := range []struct {
		name   string
		prefix []byte
		silent bool // nothing to refuse yet: Recv waits, and sees the connection die
	}{
		{"0xFFFFFFFF", u32(0xFFFFFFFF), false},
		{"16 MiB then silence", u32(maxFrameBody), true},
		{"16 MiB control frame", u32(maxFrameBody, byte(FrameCtl)), false},
		{"16 MiB blob frame", u32(maxFrameBody, byte(FrameBlob)), false},
		{"control blob one over the cap", u32(ctlHeader+maxCtlBlob+1, byte(FrameCtl)), false},
		{"zero length", u32(0), false},
		{"gob stream", gobHello.Bytes(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := tcpPair(t)
			defer cli.Close()
			defer srv.Close()
			rx := NewConnTransport(srv)
			errc := make(chan error, 1)
			got := allocatedBy(func() {
				go func() {
					_, err := rx.Recv()
					errc <- err
				}()
				if _, err := cli.Write(tc.prefix); err != nil {
					t.Fatal(err)
				}
				if tc.silent {
					cli.Close()
				}
				// No timer in here: the first one a process arms allocates
				// more than the bound. A Recv that refuses nothing hangs
				// the test instead.
				if err := <-errc; err == nil || tc.silent != errors.Is(err, ErrTransportClosed) {
					t.Fatalf("Recv = %v", err)
				}
			})
			if got > 4<<10 {
				t.Fatalf("refusing the prefix allocated %d bytes", got)
			}
		})
	}
}

// TestPipeCloseDuringShapedSend is the regression test for the shaped-pipe
// close bug: Send used to sleep out the whole simulated transfer time
// before noticing the pipe was closed (and counted the bytes regardless).
// Close must interrupt the shaping delay promptly, and an interrupted send
// must not count toward BytesSent.
func TestPipeCloseDuringShapedSend(t *testing.T) {
	// 1 KB/s: the 64 KiB message overhead alone would shape for over a
	// minute if Close could not interrupt it.
	src, _ := NewShapedPipe(0, 1000)
	done := make(chan error, 1)
	go func() {
		done <- src.Send(Message{Kind: MsgCheckpoint, Blob: make([]byte, 64<<10)})
	}()
	time.Sleep(20 * time.Millisecond)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("interrupted Send returned %v, want ErrTransportClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send still blocked after Close: shaping delay not interruptible")
	}
	if n := src.(ByteCounter).BytesSent(); n != 0 {
		t.Fatalf("interrupted Send counted %d bytes, want 0", n)
	}
}

func drainFrames(ft Transport) {
	for {
		f, err := ft.RecvFrame()
		if err != nil {
			return
		}
		f.Release()
	}
}

func sendBlobFrames(t testing.TB, ft Transport, sizes []int) {
	t.Helper()
	for _, n := range sizes {
		if err := ft.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
	}
}

// nominal is the time bps takes to carry n bytes.
func nominal(n int64, bps float64) time.Duration {
	return time.Duration(float64(n) / bps * 1e9)
}

// mixedSizes returns 200 frame sizes between 1 and 31 KiB, 3.2 MB in all.
func mixedSizes() []int {
	sizes := make([]int, 200)
	for i := range sizes {
		sizes[i] = (1 + (i*7)%31) << 10
	}
	return sizes
}

// TestShapedPipeNeverFasterThanNominal: however the sender behaves, a
// transfer beats bytes/bps by at most linkCredit — also right after the
// link sat idle, which banks nothing beyond that.
func TestShapedPipeNeverFasterThanNominal(t *testing.T) {
	const bps = 64e6
	src, dst := NewShapedPipe(0, bps)
	defer src.Close()
	go drainFrames(dst)
	for _, gap := range []time.Duration{0, 20 * linkCredit} {
		time.Sleep(gap)
		before := src.(ByteCounter).BytesSent()
		start := time.Now()
		sendBlobFrames(t, src, mixedSizes())
		took := time.Since(start)
		sent := src.(ByteCounter).BytesSent() - before
		if min := nominal(sent, bps) - linkCredit; took < min {
			t.Fatalf("after a %v gap %d bytes crossed a %.0f B/s link in %v, nominal minus credit is %v", gap, sent, bps, took, min)
		}
	}
}

// pipeOf returns the link under an in-process transport half.
func pipeOf(t Transport) *pipe { return t.(*stream).link.(*pipe) }

// pacedSender replays a sender against the link clock on a synthetic
// timeline: before each frame it spends `work`, then waits as long as
// reserve says, and every wait overshoots by `overshoot` (a timer never
// fires on time). It returns when the last frame has crossed.
func pacedSender(p *pipe, start time.Time, sizes []int, work, overshoot time.Duration) time.Time {
	now := start
	for _, n := range sizes {
		now = now.Add(work)
		if wait := p.reserve(now, n); wait > 0 {
			now = now.Add(wait + overshoot)
		}
	}
	return now
}

// TestLinkClockAbsorbsSenderOverhead: per-frame work and timer overshoot
// overlap the previous frame's transfer instead of adding to it. 200
// frames of 250 µs each, 100 µs of work before and 300 µs of overshoot
// after every wait: a link that slept each frame's own time would need
// ≥ 1.4 × nominal for the work alone; against the clock the transfer ends
// one overshoot after nominal.
func TestLinkClockAbsorbsSenderOverhead(t *testing.T) {
	const (
		bps       = 64e6
		work      = 100 * time.Microsecond
		overshoot = 300 * time.Microsecond
	)
	sizes := make([]int, 200)
	var total int64
	for i := range sizes {
		sizes[i] = 16000 // 250 µs at bps
		total += int64(sizes[i])
	}
	a, _ := NewShapedPipe(0, bps)
	start := time.Now()
	took := pacedSender(pipeOf(a), start, sizes, work, overshoot).Sub(start)
	nom := nominal(total, bps)
	if perFrame := nom + time.Duration(len(sizes))*work; float64(perFrame) < 1.4*float64(nom) {
		t.Fatalf("test shape: a per-frame sleep would take %v, not >= 1.4 x nominal %v", perFrame, nom)
	}
	if took < nom-linkCredit {
		t.Fatalf("transfer took %v, faster than nominal %v minus credit", took, nom)
	}
	if max := nom + overshoot; took > max {
		t.Fatalf("transfer with per-frame work took %v, want nominal %v plus one overshoot", took, nom)
	}
}

// TestLinkClockIdleGapBuysAtMostCredit: idle time is not banked. A sender
// that shows up after a long gap is treated as exactly linkCredit late —
// its first bytes cross that much sooner, nothing more — and a sender that
// falls further behind than linkCredit loses the excess for good.
func TestLinkClockIdleGapBuysAtMostCredit(t *testing.T) {
	const bps = 64e6
	a, _ := NewShapedPipe(0, bps)
	p := pipeOf(a)
	now := time.Now()
	const n = 640000 // 10 ms at bps
	if wait := p.reserve(now, n); wait != nominal(n, bps)-linkCredit {
		t.Fatalf("first send on an idle link waits %v, want nominal %v minus credit", wait, nominal(n, bps))
	}
	now = now.Add(time.Second) // long idle gap
	if wait := p.reserve(now, n); wait != nominal(n, bps)-linkCredit {
		t.Fatalf("send after a 1 s gap waits %v, want nominal %v minus credit", wait, nominal(n, bps))
	}
	// Back to back: the second send queues behind the first in full.
	if wait := p.reserve(now, n); wait != 2*nominal(n, bps)-linkCredit {
		t.Fatalf("back-to-back send waits %v, want %v", wait, 2*nominal(n, bps)-linkCredit)
	}
}

// BenchmarkShapedPipeFrames pushes bursts of 64 × 256 KiB frames (one
// vmm chunk each) through a 250 MB/s shaped pipe and reports how close
// the pipe comes to its nominal rate (1.0 = link-bound).
func BenchmarkShapedPipeFrames(b *testing.B) {
	const bps = 250e6
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = 256 << 10
	}
	src, dst := NewShapedPipe(0, bps)
	defer src.Close()
	go drainFrames(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendBlobFrames(b, src, sizes)
	}
	b.StopTimer()
	sent := src.(ByteCounter).BytesSent()
	b.SetBytes(sent / int64(b.N))
	b.ReportMetric(float64(nominal(sent, bps))/float64(b.Elapsed()), "x-nominal")
}

// writeCountingConn counts the Writes a transport makes on its socket.
type writeCountingConn struct {
	net.Conn
	writes int
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestConnTransportByteAccounting pins the counting-writer fix: BytesSent
// must equal the bytes that actually reached the wire — not a pre-encode
// guess with a flat overhead estimate — and every message and frame is
// exactly one Write.
func TestConnTransportByteAccounting(t *testing.T) {
	conn, peer := tcpPair(t)
	defer peer.Close()
	received := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, peer)
		received <- n
	}()
	wc := &writeCountingConn{Conn: conn}
	ts := NewConnTransport(wc)
	for _, m := range []Message{
		{Kind: MsgImage, Blob: []byte("img")},
		{Kind: MsgCheckpoint, Blob: make([]byte, 4096)},
	} {
		if err := ts.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	sent := ts.(ByteCounter).BytesSent()
	conn.Close()
	got := <-received
	if got != sent {
		t.Fatalf("BytesSent = %d, wire saw %d", sent, got)
	}
	if want := int64(2*(4+ctlHeader) + 3 + 4096 + len(AppendFrame(nil, &PageFrame{Kind: FrameBlob, Data: make([]byte, 1024)}))); sent != want {
		t.Fatalf("BytesSent = %d, the two messages and the frame encode to %d", sent, want)
	}
	if wc.writes != 3 {
		t.Fatalf("two messages and a frame took %d writes, want 3", wc.writes)
	}
}

// TestCtlFrameInterleaveTCP drives control messages and bulk frames of
// every kind alternately over one TCP stream: one format, one reader, and
// each Recv/RecvFrame gets exactly its own bytes.
func TestCtlFrameInterleaveTCP(t *testing.T) {
	cliConn, srvConn := tcpPair(t)
	defer cliConn.Close()
	defer srvConn.Close()
	cli := NewConnTransport(cliConn)
	srv := NewConnTransport(srvConn)

	var want []*PageFrame
	for _, f := range testFrames() {
		if f.Kind != FrameCtl {
			want = append(want, f)
		}
	}
	go func() {
		cli.Send(Message{Kind: MsgHello, Blob: []byte("hi")})
		for _, f := range want {
			cli.SendFrame(&PageFrame{Kind: f.Kind, Pages: f.Pages, Sizes: f.Sizes, Data: f.Data})
			cli.Send(Message{Kind: MsgDone, Blob: []byte(f.Kind.String())})
		}
	}()
	if m, err := srv.Recv(); err != nil || m.Kind != MsgHello {
		t.Fatalf("Recv hello = %+v, %v", m, err)
	}
	for _, f := range want {
		got, err := srv.RecvFrame()
		if err != nil {
			t.Fatalf("RecvFrame(%v): %v", f.Kind, err)
		}
		frameEq(t, f, got)
		got.Release()
		m, err := srv.Recv()
		if err != nil || m.Kind != MsgDone || string(m.Blob) != f.Kind.String() {
			t.Fatalf("Recv after %v frame = %+v, %v", f.Kind, m, err)
		}
	}
}

// BenchmarkConnTransportMsgRTT ping-pongs a 288-byte hello (quote, DH
// public key, nonce) over a loopback TCP transport: the per-message cost of
// the control path, the benchmark spine's core.transport.tcp_msg_rtt_us.
func BenchmarkConnTransportMsgRTT(b *testing.B) {
	cliConn, srvConn := tcpPair(b)
	cli, srv := NewConnTransport(cliConn), NewConnTransport(srvConn)
	defer cli.Close()
	defer srv.Close()
	go func() {
		for {
			m, err := srv.Recv()
			if err != nil || srv.Send(m) != nil {
				return
			}
		}
	}()
	hello := Message{Kind: MsgHello, Blob: make([]byte, 288)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(hello); err != nil {
			b.Fatal(err)
		}
		if _, err := cli.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSendRecvBulk round-trips a large checkpoint blob through the bulk
// framing: one small announcing message, then the payload as FrameBlob
// segments — also through a wrapper, which sees every one of them — kept by
// the receiver as the frames of its checkpoint window, in order, with the
// request area left to the shared region.
func TestSendRecvBulk(t *testing.T) {
	blob := make([]byte, 3*bulkSegment/2+17)
	for i := range blob {
		blob[i] = byte(i)
	}
	t.Run("framed", func(t *testing.T) {
		a, dst := NewPipe()
		src := NewFaultyTransport(a, 0, false) // op counter
		errc := make(chan error, 1)
		go func() {
			errc <- sendBulk(src, Message{Kind: MsgCheckpoint, Blob: blob})
		}()
		req := enclave.NewSharedRegion(enclave.SharedCkptOff)
		win, n, err := recvWindow(dst, req, len(blob)+1)
		if err != nil {
			t.Fatal(err)
		}
		defer win.release()
		if serr := <-errc; serr != nil {
			t.Fatal(serr)
		}
		got := make([]byte, n)
		if err := win.Load(enclave.SharedCkptOff, got); err != nil {
			t.Fatal(err)
		}
		if n != len(blob) || !bytes.Equal(got, blob) {
			t.Fatalf("bulk round trip corrupted: %d bytes", n)
		}
		if err := win.Load(enclave.SharedCkptOff+uint64(n), make([]byte, 1)); err == nil {
			t.Fatal("the window reads past the checkpoint it received")
		}
		if err := win.Store(enclave.SharedReqOff, []byte("req")); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 3)
		if err := req.Load(enclave.SharedReqOff, b); err != nil || string(b) != "req" {
			t.Fatalf("a store to the request area reached %q in the shared region, want %q", b, "req")
		}
		if want := 1 + 2; src.Ops() != want {
			t.Fatalf("payload of %d bytes crossed the wrapper in %d operations, want %d (message + 2 segments)", len(blob), src.Ops(), want)
		}
	})
}
