package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestMessageRoundTrip pins the gob wire format of Message: every field of
// every message kind survives an encode/decode cycle.
func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Kind: MsgImage, Blob: []byte{0x01, 0x02, 0x03}},
		{Kind: MsgHello, Blob: []byte("quote||dhpub||nonce")},
		{Kind: MsgChannel, Blob: bytes.Repeat([]byte{0xA5}, 4096)},
		{Kind: MsgChannelOK},
		{Kind: MsgCheckpoint, Blob: make([]byte, 1<<16)},
		{Kind: MsgCheckpoint, Frames: 3},
		{Kind: MsgKey, Blob: []byte{}},
		{Kind: MsgDone},
		{Kind: MsgAbort, Blob: []byte("cancelled")},
	}
	for _, in := range msgs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(in); err != nil {
			t.Fatalf("encode kind %d: %v", in.Kind, err)
		}
		var out Message
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decode kind %d: %v", in.Kind, err)
		}
		if out.Kind != in.Kind || !bytes.Equal(out.Blob, in.Blob) || out.Frames != in.Frames {
			t.Errorf("round trip changed message: %+v != %+v", out, in)
		}
	}
}

// TestMessageTruncatedFrame ensures a partial Message frame is rejected by
// the decoder instead of silently yielding a zero message.
func TestMessageTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Kind: MsgCheckpoint, Blob: bytes.Repeat([]byte{1}, 1024)}
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		var out Message
		if err := gob.NewDecoder(bytes.NewReader(full[:cut])).Decode(&out); err == nil {
			t.Errorf("truncated frame of %d/%d bytes decoded to %+v, want error", cut, len(full), out)
		}
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
	took := pacedSender(a.(*pipe), start, sizes, work, overshoot).Sub(start)
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
	p := a.(*pipe)
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

// TestConnTransportByteAccounting pins the counting-writer fix: BytesSent
// must equal the bytes that actually reached the wire — not a pre-encode
// guess with a flat overhead estimate.
func TestConnTransportByteAccounting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan int64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			received <- -1
			return
		}
		n, _ := io.Copy(io.Discard, conn)
		received <- n
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewConnTransport(conn)
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
}

// TestGobFrameInterleaveTCP drives gob control messages and binary frames
// of every kind alternately over one TCP stream — the hostproto envelope
// shares it with the frames the same way: the shared bufio reader must hand
// each decoder exactly its own bytes.
func TestGobFrameInterleaveTCP(t *testing.T) {
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
	cliConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cliConn.Close()
	srvConn, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer srvConn.Close()
	cli := NewConnTransport(cliConn)
	srv := NewConnTransport(srvConn)

	want := testFrames()
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

// TestSendRecvBulk round-trips a large checkpoint blob through the bulk
// framing: one small announcing message, then the payload as FrameBlob
// segments — also through a wrapper, which sees every one of them.
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
		m, err := recvBulk(dst, MsgCheckpoint, len(blob))
		if err != nil {
			t.Fatal(err)
		}
		if serr := <-errc; serr != nil {
			t.Fatal(serr)
		}
		if !bytes.Equal(m.Blob, blob) {
			t.Fatalf("bulk round trip corrupted: %d bytes", len(m.Blob))
		}
		if m.Frames != 0 {
			t.Fatalf("reassembled message still announces %d frames", m.Frames)
		}
		if want := 1 + 2; src.Ops() != want {
			t.Fatalf("payload of %d bytes crossed the wrapper in %d operations, want %d (message + 2 segments)", len(blob), src.Ops(), want)
		}
	})
}
