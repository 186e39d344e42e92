package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/testapps"
)

// noFramesHeld fails the test unless every frame window has been released.
// A target's failure path returns before its deferred releases have all run
// on the peer's goroutine, so it allows a moment.
func noFramesHeld(t *testing.T, after string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); heldFrames.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := heldFrames.Load(); n != 0 {
		t.Fatalf("%d checkpoint frames still held after %s", n, after)
	}
}

// TestFrameWindowStoreLoad: stores that cross frame boundaries, made
// concurrently as the dump's seal workers make them, land in bulkSegment
// frames that leave in order and uncopied; a sent frame takes no further
// store, and nothing reads a frame that was never stored.
func TestFrameWindowStoreLoad(t *testing.T) {
	noFramesHeld(t, "the previous test")
	req := enclave.NewSharedRegion(enclave.SharedCkptOff)
	const total = 3*bulkSegment + 1000
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i * 7)
	}
	win := newFrameWindow(req, total)
	defer win.release()
	if err := win.Load(enclave.SharedCkptOff, make([]byte, 8)); !errors.Is(err, errWindowRange) {
		t.Fatalf("load before any store = %v, want errWindowRange", err)
	}
	var wg sync.WaitGroup
	const pieces = 5
	for p := 0; p < pieces; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := p*total/pieces, (p+1)*total/pieces
			if err := win.Store(enclave.SharedCkptOff+uint64(lo), want[lo:hi]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := heldFrames.Load(); got != 4 {
		t.Fatalf("%d frames held for a %d-byte window, want 4", got, total)
	}
	if err := win.Store(enclave.SharedCkptOff+total-1, []byte{1, 2}); !errors.Is(err, errWindowRange) {
		t.Fatalf("store past the window = %v, want errWindowRange", err)
	}

	a, b := testPipe(t)
	sent := make(chan error, 1)
	go func() {
		for off := 0; off < total; off += bulkSegment {
			if err := win.send(a, off, min(off+bulkSegment, total)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	var got []byte
	for off := 0; off < total; off += bulkSegment {
		f, err := b.RecvFrame()
		if err != nil {
			t.Fatal(err)
		}
		if want := min(bulkSegment, total-off); len(f.Data) != want {
			t.Fatalf("frame at %d carries %d bytes, want %d", off, len(f.Data), want)
		}
		got = append(got, f.Data...)
		f.Release()
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the frames sent differ from the bytes stored")
	}
	if err := win.Store(enclave.SharedCkptOff, []byte{1}); !errors.Is(err, errWindowRange) {
		t.Fatalf("store into a sent frame = %v, want errWindowRange", err)
	}
	if n := heldFrames.Load(); n != 0 {
		t.Fatalf("%d frames held once all were sent", n)
	}
}

// refusedSegments plays a peer that announces bigCounter's image and then
// sends ckpt, and returns MigrateIn's error and the first two messages the
// peer got back.
func refusedSegments(t *testing.T, ckpt func(Transport)) (error, [2]MsgKind) {
	t.Helper()
	w := newWorld(t)
	app := bigCounter()
	w.owner.ConfigureApp(app)
	dep, reg := w.deploy(app)
	t1, t2 := testPipe(t)
	reply := make(chan [2]MsgKind, 1)
	go func() {
		_ = t1.Send(Message{Kind: MsgImage, Blob: imageBlob(app.Name, dep.Sig.Measurement, app.Workers+1)})
		ckpt(t1)
		hello, _ := t1.Recv()
		m, _ := t1.Recv()
		reply <- [2]MsgKind{hello.Kind, m.Kind}
	}()
	_, err := MigrateIn(w.hostB, reg, t2, w.opts())
	kind := <-reply
	_ = t1.Close()
	noFramesHeld(t, "a refused checkpoint")
	return err, kind
}

// TestFrameWindowSegmentRefusals: the receiver keeps each segment as the
// frame that holds bytes [i*bulkSegment, …) of the checkpoint, so every
// segment but the last must be exactly bulkSegment long and none may be
// empty. sendBulk never sends anything else; a peer that does is refused,
// told, and leaves neither EPC nor frames behind.
func TestFrameWindowSegmentRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sizes  []int
		reason string
	}{
		{"short non-final segment", []int{bulkSegment - 1, 100}, "carries"},
		{"long non-final segment", []int{bulkSegment + 1, 100}, "carries"},
		{"long final segment", []int{bulkSegment + 1}, "carries"},
		{"empty segment", []int{bulkSegment, 0}, "empty checkpoint segment"},
		{"empty only segment", []int{0}, "empty checkpoint segment"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err, reply := refusedSegments(t, func(p Transport) {
				_ = p.Send(Message{Kind: MsgCheckpoint, Frames: uint32(len(tc.sizes))})
				for _, n := range tc.sizes {
					_ = p.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, n)})
				}
			})
			if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("MigrateIn = %v, want ErrProtocol naming %q", err, tc.reason)
			}
			if reply != [2]MsgKind{MsgHello, MsgAbort} {
				t.Fatalf("the peer got messages %v, want the hello and then an abort", reply)
			}
		})
	}
}

// prepareHop runs MigrateOut of src over a pipe and MigrateInPrepare on
// host B; out receives MigrateOut's result once it returns. src's transport
// is wrapped by wrap, if set.
func prepareHop(t *testing.T, w *world, src *enclave.Runtime, reg *Registry, wrap func(Transport) Transport) (*PreparedTarget, <-chan error) {
	t.Helper()
	t1, t2 := testPipe(t)
	if wrap != nil {
		t1 = wrap(t1)
	}
	out := make(chan error, 1)
	go func() {
		_, err := MigrateOut(src, t1, w.opts())
		if err != nil {
			_ = t1.Close()
		}
		out <- err
	}()
	pt, err := MigrateInPrepare(w.hostB, reg, t2, w.opts())
	if err != nil {
		t.Fatalf("MigrateInPrepare: %v", err)
	}
	if heldFrames.Load() == 0 {
		t.Fatal("a prepared target holds no checkpoint frames")
	}
	return pt, out
}

// TestFrameWindowHeldFrameRewriteRefused: the target keeps the received
// frames untouched until Finish, where the enclave loads them into private
// memory and opens them. A host that rewrites a held frame after the header
// check — one byte inside the first sealed leaf — gets the restore refused
// with "decryption failed", and the target is destroyed with its frames and
// EPC returned.
func TestFrameWindowHeldFrameRewriteRefused(t *testing.T) {
	noFramesHeld(t, "the previous test")
	w := newWorld(t)
	app := bigCounter()
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	pt, out := prepareHop(t, w, src, reg, nil)
	pt.win.mu.Lock()
	pt.win.frames[1].Data[100] ^= 1
	pt.win.mu.Unlock()
	_, err := pt.Finish()
	if err == nil || !strings.Contains(err.Error(), "decryption failed") {
		t.Fatalf("Finish over a rewritten frame = %v, want decryption failed", err)
	}
	if !pt.Runtime().Dead() {
		t.Fatal("the target enclave outlived its refused restore")
	}
	if err := <-out; err == nil {
		t.Fatal("MigrateOut succeeded against a refused restore")
	}
	noFramesHeld(t, "a refused restore")
}

// keyCut is a source transport that hangs up instead of sending Kmigrate.
type keyCut struct{ Transport }

func (k keyCut) Send(m Message) error {
	if m.Kind == MsgKey {
		_ = k.Close()
		return ErrInjectedFault
	}
	return k.Transport.Send(m)
}

// TestFrameWindowReleasedOnEveryPath: no checkpoint frame outlives the
// migration that carried it, on either side, whichever way it ends — a
// receive that fails part-way, a channel that fails after the checkpoint is
// in, a Finish that fails, a prepared target aborted, a source whose
// transport fails mid-checkpoint — or when it commits.
func TestFrameWindowReleasedOnEveryPath(t *testing.T) {
	t.Run("receive error", func(t *testing.T) {
		err, _ := refusedSegments(t, func(p Transport) {
			_ = p.Send(Message{Kind: MsgCheckpoint, Frames: 3})
			_ = p.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, bulkSegment)})
			_ = p.Close()
		})
		if !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("MigrateIn = %v, want ErrTransportClosed", err)
		}
	})
	t.Run("channel failure", func(t *testing.T) {
		w := newWorld(t)
		app := bigCounter()
		src := w.launch(t, app)
		_, reg := w.deploy(app)
		opts := w.opts()
		if _, err := Prepare(src, opts); err != nil {
			t.Fatal(err)
		}
		blob, _, err := Dump(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = Cancel(src) }()
		t1, t2 := testPipe(t)
		go func() {
			_ = sendImage(src, t1)
			_ = sendBulk(t1, Message{Kind: MsgCheckpoint, Blob: blob})
			_, _ = t1.Recv() // the target's hello
			_ = t1.Close()
		}()
		if _, err := MigrateIn(w.hostB, reg, t2, opts); err == nil {
			t.Fatal("MigrateIn succeeded over a dead channel")
		}
		noFramesHeld(t, "a failed channel")
	})
	t.Run("finish failure", func(t *testing.T) {
		w := newWorld(t)
		app := bigCounter()
		src := w.launch(t, app)
		_, reg := w.deploy(app)
		pt, out := prepareHop(t, w, src, reg, func(t Transport) Transport { return keyCut{t} })
		if _, err := pt.Finish(); err == nil {
			t.Fatal("Finish succeeded without a key")
		}
		<-out
		noFramesHeld(t, "a failed Finish")
	})
	t.Run("abort", func(t *testing.T) {
		w := newWorld(t)
		app := bigCounter()
		src := w.launch(t, app)
		_, reg := w.deploy(app)
		opts := w.opts()
		if _, err := Prepare(src, opts); err != nil {
			t.Fatal(err)
		}
		blob, _, err := Dump(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		t1, t2 := testPipe(t)
		prepared := make(chan *PreparedSource, 1)
		go func() {
			ps, err := MigrateOutChannel(src, blob, t1, opts)
			if err != nil {
				t.Error(err)
			}
			prepared <- ps
		}()
		pt, err := MigrateInPrepare(w.hostB, reg, t2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if heldFrames.Load() == 0 {
			t.Fatal("a prepared target holds no checkpoint frames")
		}
		pt.Abort("a sibling failed")
		if ps := <-prepared; ps != nil {
			if err := ps.Cancel("a sibling failed"); err != nil {
				t.Fatal(err)
			}
		}
		noFramesHeld(t, "PreparedTarget.Abort")
		if _, err := src.ECall(0, testapps.CounterGet); err != nil {
			t.Fatalf("source after an aborted target: %v", err)
		}
	})
	t.Run("source send failure", func(t *testing.T) {
		w := newWorld(t)
		app := bigCounter()
		src := w.launch(t, app)
		// Image, checkpoint announcement, first segment; the second fails.
		// The pipe's queue takes the first three without a reader.
		t1, _ := testPipe(t)
		ft := NewFaultyTransport(t1, 4, true)
		if _, err := MigrateOut(src, ft, w.opts()); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("MigrateOut = %v, want ErrInjectedFault", err)
		}
		noFramesHeld(t, "a failed source send")
		if _, err := src.ECall(0, testapps.CounterGet); err != nil {
			t.Fatalf("source after a failed send: %v", err)
		}
	})
	t.Run("commit", func(t *testing.T) {
		w := newWorld(t)
		app := bigCounter()
		src := w.launch(t, app)
		_, reg := w.deploy(app)
		_, inc := runMigration(t, src, w.hostB, reg, w.opts())
		defer func() { _ = inc.Runtime.Destroy() }()
		noFramesHeld(t, "a committed migration")
	})
}
