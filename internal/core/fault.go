package core

import (
	"errors"
	"sync"
)

// ErrInjectedFault is returned by a FaultyTransport at its trigger point.
var ErrInjectedFault = errors.New("core: injected transport fault")

// FaultyTransport wraps a Transport and fails a chosen operation, letting
// tests drive a migration through every abort point: wrap one protocol half,
// sweep FailAt over 1..Ops() of a clean run, and assert that each truncated
// run leaks neither enclaves nor goroutines.
//
// Operations (messages and frames, Send and Recv alike) are counted on this
// half only. When the counter reaches failAt, that operation returns
// ErrInjectedFault; with closeOnFail the underlying transport is closed
// first, so the peer's blocking Recv/Send unblocks with ErrTransportClosed
// instead of hanging — the behaviour of a torn TCP connection.
type FaultyTransport struct {
	inner       Transport
	closeOnFail bool

	mu     sync.Mutex
	ops    int // guarded by mu
	failAt int // guarded by mu; 1-based, 0 = never fail
}

// NewFaultyTransport wraps inner. failAt is the 1-based operation index to
// fail (0 disables injection, turning the wrapper into an op counter).
func NewFaultyTransport(inner Transport, failAt int, closeOnFail bool) *FaultyTransport {
	return &FaultyTransport{inner: inner, failAt: failAt, closeOnFail: closeOnFail}
}

// Ops reports how many Send/Recv operations this half has attempted.
func (f *FaultyTransport) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// trip counts one operation and reports whether it must fail.
func (f *FaultyTransport) trip() bool {
	f.mu.Lock()
	f.ops++
	hit := f.failAt > 0 && f.ops == f.failAt
	f.mu.Unlock()
	if hit && f.closeOnFail {
		_ = f.inner.Close()
	}
	return hit
}

// Send implements Transport.
func (f *FaultyTransport) Send(m Message) error {
	if f.trip() {
		return ErrInjectedFault
	}
	return f.inner.Send(m)
}

// Recv implements Transport.
func (f *FaultyTransport) Recv() (Message, error) {
	if f.trip() {
		return Message{}, ErrInjectedFault
	}
	return f.inner.Recv()
}

// SendFrame implements Transport; frame sends count as operations like any
// other.
func (f *FaultyTransport) SendFrame(pf *PageFrame) error {
	if f.trip() {
		pf.Release()
		return ErrInjectedFault
	}
	return f.inner.SendFrame(pf)
}

// RecvFrame implements Transport.
func (f *FaultyTransport) RecvFrame() (*PageFrame, error) {
	if f.trip() {
		return nil, ErrInjectedFault
	}
	return f.inner.RecvFrame()
}

// Close implements Transport.
func (f *FaultyTransport) Close() error { return f.inner.Close() }
