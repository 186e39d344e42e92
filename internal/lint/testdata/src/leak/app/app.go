// Package app exercises the leakcheck analyzer: acquire/release pairing,
// error-branch pairing, escapes, defers, aliases, overwrites, and
// interprocedural release credit through summaries.
package app

import (
	"errors"

	"fxleak/mgr"
)

const maxPages = 128

type holder struct{ f mgr.Frame }

// GoodAlloc releases on every path via defer.
func GoodAlloc(m *mgr.Mgr) error {
	f, err := m.AllocFrame()
	if err != nil {
		return err
	}
	defer m.ReturnFrame(f)
	return nil
}

// GoodNote hands ownership to the manager's page table.
func GoodNote(m *mgr.Mgr) error {
	f, err := m.AllocFrame()
	if err != nil {
		return err
	}
	m.Note(f)
	return nil
}

// BuildImage mirrors the pre-PR3 enclave build bug: the frame backing
// the image is not freed when post-build validation fails.
func BuildImage(m *mgr.Mgr, pages int) error {
	f, err := m.AllocFrame() // want: leak on the validation error path
	if err != nil {
		return err
	}
	if pages > maxPages {
		return errors.New("app: image too large") // f leaks here
	}
	m.Note(f)
	return nil
}

// GoodViaHelper releases through a callee; the summary solver must
// credit cleanup's release so this stays clean.
func GoodViaHelper(m *mgr.Mgr) error {
	f, err := m.AllocFrame()
	if err != nil {
		return err
	}
	if err := build(f); err != nil {
		cleanup(m, f)
		return err
	}
	m.Note(f)
	return nil
}

func cleanup(m *mgr.Mgr, f mgr.Frame) { m.ReturnFrame(f) }

func build(f mgr.Frame) error {
	if f < 0 {
		return errors.New("app: bad frame")
	}
	return nil
}

// BadThroughCallee passes the frame to a callee that neither releases
// nor retains it, so the early return still leaks.
func BadThroughCallee(m *mgr.Mgr) error {
	f, err := m.AllocFrame() // want: peek does not release f
	if err != nil {
		return err
	}
	if peek(f) > 10 {
		return errors.New("app: big")
	}
	m.ReturnFrame(f)
	return nil
}

func peek(f mgr.Frame) int { return int(f) }

// Lease escapes the frame to the caller, which owns it from here.
func Lease(m *mgr.Mgr) (mgr.Frame, error) {
	return m.AllocFrame()
}

// GoodEscape stores the frame into a returned struct.
func GoodEscape(m *mgr.Mgr) (*holder, error) {
	f, err := m.AllocFrame()
	if err != nil {
		return nil, err
	}
	return &holder{f: f}, nil
}

// GoodHandoff hands the frame to a goroutine that releases it.
func GoodHandoff(m *mgr.Mgr) error {
	f, err := m.AllocFrame()
	if err != nil {
		return err
	}
	go func() { m.ReturnFrame(f) }()
	return nil
}

// GoodDeferClosure releases inside a deferred closure.
func GoodDeferClosure(m *mgr.Mgr) error {
	f, err := m.AllocFrame()
	if err != nil {
		return err
	}
	defer func() { m.ReturnFrame(f) }()
	return touch(f)
}

func touch(f mgr.Frame) error { _ = f; return nil }

// GoodRecursive releases through a self-recursive helper; the SCC
// fixpoint must converge on "releases f".
func GoodRecursive(m *mgr.Mgr) error {
	f, err := m.AllocFrame()
	if err != nil {
		return err
	}
	releaseRec(m, f, 3)
	return nil
}

func releaseRec(m *mgr.Mgr, f mgr.Frame, n int) {
	if n <= 0 {
		m.ReturnFrame(f)
		return
	}
	releaseRec(m, f, n-1)
}

// GoodAlias releases through a copy of the frame variable.
func GoodAlias(m *mgr.Mgr) error {
	f, err := m.AllocFrame()
	if err != nil {
		return err
	}
	g := f
	m.ReturnFrame(g)
	return nil
}

// BadDiscard drops the result on the floor.
func BadDiscard(m *mgr.Mgr) {
	m.AllocFrame() // want: discarded acquire
}

// BadOverwrite loses the first frame by re-acquiring over it.
func BadOverwrite(m *mgr.Mgr) {
	f, _ := m.AllocFrame()
	f, _ = m.AllocFrame() // want: overwrites held frame
	m.ReturnFrame(f)
}

// GoodSession closes on every path.
func GoodSession() error {
	s, err := mgr.Open()
	if err != nil {
		return err
	}
	defer s.Close()
	return nil
}

// BadSession leaks the session on the early return.
func BadSession(stop bool) error {
	s, err := mgr.Open() // want: early return leaks s
	if err != nil {
		return err
	}
	if stop {
		return errors.New("app: early")
	}
	s.Close()
	return nil
}

// GoodQuiesce pairs an argument-acquire with its release.
func GoodQuiesce(s *mgr.Session) error {
	if err := mgr.Quiesce(s); err != nil {
		return err
	}
	defer mgr.Unquiesce(s)
	return nil
}

// BadQuiesce leaves s quiesced on the busy path.
func BadQuiesce(s *mgr.Session, n int) error {
	if err := mgr.Quiesce(s); err != nil { // want: busy path leaks quiesce
		return err
	}
	if n > 0 {
		return errors.New("app: busy")
	}
	mgr.Unquiesce(s)
	return nil
}

// LitOwn acquires and releases entirely inside a function literal.
func LitOwn(m *mgr.Mgr) func() error {
	return func() error {
		f, err := m.AllocFrame()
		if err != nil {
			return err
		}
		m.ReturnFrame(f)
		return nil
	}
}

// BadInLit leaks inside the returned literal.
func BadInLit(m *mgr.Mgr, bad bool) func() error {
	return func() error {
		f, err := m.AllocFrame() // want: literal leaks on the bad path
		if err != nil {
			return err
		}
		if bad {
			return errors.New("app: oops")
		}
		m.ReturnFrame(f)
		return nil
	}
}

// GoodBuf mirrors the checkpoint paths: the pooled buffer goes back by a
// defer on every exit.
func GoodBuf(n int) error {
	buf := mgr.GetBuf(n)
	defer mgr.PutBuf(buf)
	if !checkBuf(buf) {
		return errors.New("app: refused")
	}
	return nil
}

// BadBuf drops the pooled buffer on the refusal path.
func BadBuf(n int) error {
	buf := mgr.GetBuf(n) // want: refusal path drops the buffer
	if !checkBuf(buf) {
		return errors.New("app: refused")
	}
	mgr.PutBuf(buf)
	return nil
}

// checkBuf reads a buffer and keeps no reference to it.
func checkBuf(b []byte) bool { return len(b) > 0 && b[0] == 0 }

// prepared keeps a received window until it is finished or aborted.
type prepared struct{ w *mgr.Window }

// recvWindow mirrors core's receive: every refusal releases the window,
// and the accepted one goes back to the caller.
func recvWindow(frames [][]byte) (*mgr.Window, error) {
	w := mgr.NewWindow()
	for _, f := range frames {
		w.Hold(f)
		if len(f) == 0 {
			w.Release()
			return nil, errors.New("app: empty frame")
		}
	}
	return w, nil
}

// GoodWindow hands the received window to the prepared value, and
// releases it on the refusal after the receive.
func GoodWindow(frames [][]byte, ok bool) (*prepared, error) {
	w, err := recvWindow(frames)
	if err != nil {
		return nil, err
	}
	if !ok {
		w.Release()
		return nil, errors.New("app: channel failed")
	}
	return &prepared{w: w}, nil
}

// BadWindow drops the received window when the channel fails.
func BadWindow(frames [][]byte, ok bool) (*prepared, error) {
	w, err := recvWindow(frames) // want: channel failure drops the window
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("app: channel failed")
	}
	return &prepared{w: w}, nil
}

// BadGoBuf drops the pooled buffer on the failure path of a goroutine it
// starts, as a producer that reports its error and returns would.
func BadGoBuf(n int, errs chan<- error) {
	go func() {
		buf := mgr.GetBuf(n) // want: the failure path drops the buffer
		if !checkBuf(buf) {
			errs <- errors.New("app: refused")
			return
		}
		mgr.PutBuf(buf)
		errs <- nil
	}()
}
