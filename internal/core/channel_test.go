package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/tcb"
	"repro/internal/testapps"
)

// TestHopDerivesEachDHHalfOnce: a hop's channel builds two X25519 key
// pairs — the target's at its begin, the source's at the end of its dump —
// and computes one shared secret on each side. Neither side builds its half
// a second time when it completes the channel, so a hop does four scalar
// multiplications.
func TestHopDerivesEachDHHalfOnce(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)

	var keys, shared atomic.Int32
	tcb.DHHook = func(op tcb.DHOp) {
		switch op {
		case tcb.DHKeyPairBuilt:
			keys.Add(1)
		case tcb.DHSharedSecret:
			shared.Add(1)
		}
	}
	t.Cleanup(func() { tcb.DHHook = nil })
	_, inc := runMigration(t, src, w.hostB, reg, w.opts())
	tcb.DHHook = nil
	if err := inc.Runtime.Destroy(); err != nil {
		t.Fatal(err)
	}
	if k, s := keys.Load(), shared.Load(); k != 2 || s != 2 {
		t.Fatalf("a hop built %d X25519 key pairs and computed %d shared secrets, want 2 and 2", k, s)
	}
}

// channelTap is a source transport that records the DH half of every
// MsgChannel MigrateOut sends over it.
type channelTap struct {
	Transport
	halves []tcb.DHPublic
}

func (c *channelTap) Send(m Message) error {
	if m.Kind == MsgChannel && len(m.Blob) >= len(tcb.DHPublic{}) {
		c.halves = append(c.halves, tcb.DHPublic(m.Blob))
	}
	return c.Transport.Send(m)
}

// refuseChannel is a target transport that fails on the source's
// MsgChannel, as if it never arrived.
type refuseChannel struct{ Transport }

func (r refuseChannel) Recv() (Message, error) {
	m, err := r.Transport.Recv()
	if err == nil && m.Kind == MsgChannel {
		return Message{}, ErrInjectedFault
	}
	return m, err
}

// TestCancelDrawsNewSourceHalf: the source's DH half is drawn by its dump
// and wiped by Cancel, so a migration that fails after the source answered
// the hello and is then tried again answers the second hello with another
// half.
func TestCancelDrawsNewSourceHalf(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	opts := w.opts()

	hop := func(refuse bool) (*Incoming, *channelTap, error, error) {
		t1, t2 := testPipe(t)
		tap := &channelTap{Transport: t1}
		var tgt Transport = t2
		if refuse {
			tgt = refuseChannel{t2}
		}
		in := make(chan error, 1)
		var inc *Incoming
		go func() {
			var err error
			inc, err = MigrateIn(w.hostB, reg, tgt, opts)
			in <- err
		}()
		_, outErr := MigrateOut(src, tap, opts)
		inErr := <-in
		_ = t1.Close()
		return inc, tap, outErr, inErr
	}

	_, first, outErr, inErr := hop(true)
	if !errors.Is(outErr, ErrAborted) || inErr == nil {
		t.Fatalf("refused channel: source %v, target %v; want the source told of the abort", outErr, inErr)
	}
	if src.Dead() {
		t.Fatal("the source self-destroyed for a refused channel")
	}
	inc, second, outErr, inErr := hop(false)
	if outErr != nil || inErr != nil {
		t.Fatalf("second attempt: source %v, target %v", outErr, inErr)
	}
	if err := inc.Runtime.Destroy(); err != nil {
		t.Fatal(err)
	}
	if len(first.halves) != 1 || len(second.halves) != 1 {
		t.Fatalf("MsgChannel sent %d and %d times, want once per attempt", len(first.halves), len(second.halves))
	}
	if first.halves[0] == second.halves[0] {
		t.Fatal("the attempt after Cancel answered with the cancelled attempt's DH half")
	}
}
