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
		{Kind: MsgImage, Name: "counter", Blob: []byte{0x01, 0x02, 0x03}},
		{Kind: MsgHello, Blob: []byte("quote||dhpub||nonce")},
		{Kind: MsgChannel, Blob: bytes.Repeat([]byte{0xA5}, 4096)},
		{Kind: MsgChannelOK},
		{Kind: MsgCheckpoint, Name: "counter", Blob: make([]byte, 1<<16)},
		{Kind: MsgCheckpoint, Name: "counter", Frames: 3},
		{Kind: MsgKey, Blob: []byte{}},
		{Kind: MsgDone},
		{Kind: MsgAbort, Name: "cancelled"},
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
		if out.Kind != in.Kind || out.Name != in.Name || !bytes.Equal(out.Blob, in.Blob) || out.Frames != in.Frames {
			t.Errorf("round trip changed message: %+v != %+v", out, in)
		}
	}
}

// TestMessageTruncatedFrame ensures a partial Message frame is rejected by
// the decoder instead of silently yielding a zero message.
func TestMessageTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Kind: MsgCheckpoint, Name: "app", Blob: bytes.Repeat([]byte{1}, 1024)}
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
		{Kind: MsgImage, Name: "counter", Blob: []byte("img")},
		{Kind: MsgCheckpoint, Blob: make([]byte, 4096)},
	} {
		if err := ts.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	ft := ts.(FrameTransport)
	if err := ft.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	sent := ts.(ByteCounter).BytesSent()
	conn.Close()
	got := <-received
	if got != sent {
		t.Fatalf("BytesSent = %d, wire saw %d", sent, got)
	}
}

// TestFrameGobInterleaveTCP drives gob control messages and binary frames
// alternately over one TCP stream in both framings of the migration
// protocol: the shared bufio reader must hand each decoder exactly its own
// bytes.
func TestFrameGobInterleaveTCP(t *testing.T) {
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
	cli := NewConnTransport(cliConn).(FrameTransport)
	srv := NewConnTransport(srvConn).(FrameTransport)

	want := testFrames()
	go func() {
		cli.Send(Message{Kind: MsgHello, Blob: []byte("hi")})
		for _, f := range want {
			cli.SendFrame(&PageFrame{Kind: f.Kind, Pages: f.Pages, Sizes: f.Sizes, Data: f.Data})
			cli.Send(Message{Kind: MsgDone, Name: f.Kind.String()})
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
		if err != nil || m.Kind != MsgDone || m.Name != f.Kind.String() {
			t.Fatalf("Recv after %v frame = %+v, %v", f.Kind, m, err)
		}
	}
}

// msgOnlyTransport hides a pipe's frame methods, standing in for a
// transport that cannot frame (sendBulk must fall back to inline blobs).
type msgOnlyTransport struct{ Transport }

// TestSendRecvBulk round-trips a large checkpoint blob through the bulk
// framing on a frame-capable pipe, and inline through a message-only one.
func TestSendRecvBulk(t *testing.T) {
	blob := make([]byte, 3*bulkSegment/2+17)
	for i := range blob {
		blob[i] = byte(i)
	}
	run := func(t *testing.T, src, dst Transport) {
		errc := make(chan error, 1)
		go func() {
			errc <- sendBulk(src, Message{Kind: MsgCheckpoint, Name: "app", Blob: blob})
		}()
		m, err := recvBulk(dst, MsgCheckpoint, len(blob))
		if err != nil {
			t.Fatal(err)
		}
		if serr := <-errc; serr != nil {
			t.Fatal(serr)
		}
		if m.Name != "app" || !bytes.Equal(m.Blob, blob) {
			t.Fatalf("bulk round trip corrupted: name %q, %d bytes", m.Name, len(m.Blob))
		}
		if m.Frames != 0 {
			t.Fatalf("reassembled message still announces %d frames", m.Frames)
		}
	}
	t.Run("framed", func(t *testing.T) {
		src, dst := NewPipe()
		run(t, src, dst)
	})
	t.Run("inline", func(t *testing.T) {
		src, dst := NewPipe()
		run(t, msgOnlyTransport{src}, msgOnlyTransport{dst})
	})
}
