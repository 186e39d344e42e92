// Package mgr is a miniature resource manager for the leakcheck fixture:
// a frame allocator, an openable session, and a quiesce/unquiesce pair
// mirroring the shapes of epcman.Manager, core's prepared sessions, and
// core.Prepare.
package mgr

import "errors"

// Frame is an allocatable unit, like an EPC frame index.
type Frame int

// Mgr hands out frames.
type Mgr struct {
	next  Frame
	used  map[Frame]bool
	noted map[Frame]bool
}

func New() *Mgr {
	return &Mgr{used: make(map[Frame]bool), noted: make(map[Frame]bool)}
}

// AllocFrame acquires a frame; the caller must ReturnFrame or Note it.
func (m *Mgr) AllocFrame() (Frame, error) {
	if len(m.used) > 64 {
		return 0, errors.New("mgr: out of frames")
	}
	f := m.next
	m.next++
	m.used[f] = true
	return f, nil
}

// ReturnFrame releases a frame back to the pool.
func (m *Mgr) ReturnFrame(f Frame) { delete(m.used, f) }

// Note hands the frame to the manager's page table, which owns it from
// then on (like epcman NotePage).
func (m *Mgr) Note(f Frame) { m.noted[f] = true }

// Session is an openable resource, like a prepared migration session.
type Session struct{ open, quiesced bool }

// Open acquires a session; the caller must Close it.
func Open() (*Session, error) { return &Session{open: true}, nil }

// Close releases the session.
func (s *Session) Close() { s.open = false }

// Quiesce places its argument in the quiesced state (like core.Prepare);
// on error the session is left untouched. The caller must Unquiesce.
func Quiesce(s *Session) error {
	if !s.open {
		return errors.New("mgr: closed")
	}
	s.quiesced = true
	return nil
}

// Unquiesce releases the quiesced state.
func Unquiesce(s *Session) { s.quiesced = false }

// GetBuf takes a buffer from a pool (like enclave.getCkptBuf); the caller
// must PutBuf it.
func GetBuf(n int) []byte { return make([]byte, n) }

// PutBuf returns a buffer to the pool.
func PutBuf(b []byte) { clear(b) }

// Window holds pooled frames (like core's frameWindow); the caller must
// Release it.
type Window struct{ frames [][]byte }

// NewWindow acquires an empty window.
func NewWindow() *Window { return &Window{} }

// Hold keeps a frame in the window.
func (w *Window) Hold(f []byte) { w.frames = append(w.frames, f) }

// Release hands every held frame back.
func (w *Window) Release() { w.frames = nil }
