// Package locks exercises the lockorder rule.
package locks

import "sync"

// Pair holds two mutexes acquired in both orders: the classic deadlock.
type Pair struct {
	a sync.Mutex
	b sync.Mutex
	n int // guarded by a
	m int // guarded by nosuchmutex
}

// AB locks a then b.
func (p *Pair) AB() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock()
	defer p.b.Unlock()
	p.n++
}

// BA locks b then a: the reverse order.
func (p *Pair) BA() {
	p.b.Lock()
	defer p.b.Unlock()
	p.a.Lock()
	defer p.a.Unlock()
}

// Counter re-enters its own lock through a helper.
type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Add locks and calls the helper, which locks again: self-deadlock.
func (c *Counter) Add() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump()
}

func (c *Counter) bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Hidden is the same re-entry with a justified suppression.
func (c *Counter) Hidden() {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:ignore lockorder fixture demonstrates a justified suppression
	c.bump()
}

// Guard acquires its RWMutex in exactly one mode per call; the if/else
// arms must not be mistaken for a nested acquisition.
type Guard struct {
	rw sync.RWMutex
}

// LockEither is the mode-dependent acquisition: no finding.
func (g *Guard) LockEither(write bool) {
	if write {
		g.rw.Lock()
	} else {
		g.rw.RLock()
	}
	if write {
		g.rw.Unlock()
	} else {
		g.rw.RUnlock()
	}
}

// Chain is a consistent two-lock order: the negative case.
type Chain struct {
	x sync.Mutex
	y sync.Mutex
}

// Fine always locks x before y.
func (ch *Chain) Fine() {
	ch.x.Lock()
	ch.y.Lock()
	ch.y.Unlock()
	ch.x.Unlock()
}

// Fine2 locks x before y too — consistent order, no finding.
func (ch *Chain) Fine2() {
	ch.x.Lock()
	defer ch.x.Unlock()
	ch.y.Lock()
	defer ch.y.Unlock()
}

// --- cases the shared lock model decides and a linear walk cannot. ---

// Try pairs a u-then-t nesting with a TryLock guard whose failed branch
// takes u alone.
type Try struct {
	t sync.Mutex
	u sync.Mutex
}

// UT nests t inside u.
func (x *Try) UT() {
	x.u.Lock()
	x.t.Lock()
	x.t.Unlock()
	x.u.Unlock()
}

// Backoff takes u only where TryLock FAILED, so t is not held there and
// there is no t-then-u nesting: no finding.
func (x *Try) Backoff() {
	if !x.t.TryLock() {
		x.u.Lock()
		x.u.Unlock()
		return
	}
	x.t.Unlock()
}

// Flusher hides the second lock behind dynamic dispatch.
type Flusher interface {
	Flush()
}

// Disk is Flusher's only implementation; Flush takes dm.
type Disk struct {
	dm sync.Mutex
}

func (d *Disk) Flush() {
	d.dm.Lock()
	d.dm.Unlock()
}

// Cache holds cm across the interface call in Evict, and takes the same
// two locks in the reverse order in Sync.
type Cache struct {
	cm   sync.Mutex
	out  Flusher
	disk *Disk
}

// Evict holds cm while Flush (through the interface) takes dm.
func (c *Cache) Evict() {
	c.cm.Lock()
	c.out.Flush()
	c.cm.Unlock()
}

// Sync takes dm, then cm: the reverse order.
func (c *Cache) Sync() {
	c.disk.dm.Lock()
	c.cm.Lock()
	c.cm.Unlock()
	c.disk.dm.Unlock()
}

// Stage releases p on an early-return arm; the fallthrough path still holds
// it, releases it, and only then acquires again.
type Stage struct {
	p sync.Mutex
	q sync.Mutex
}

// Step re-acquires p after it was released on every path reaching that
// point (no self-deadlock) and nests q inside p, the only order anywhere.
func (s *Stage) Step(done bool) {
	s.p.Lock()
	if done {
		s.p.Unlock()
		return
	}
	s.p.Unlock()
	s.p.Lock()
	s.q.Lock()
	s.q.Unlock()
	s.p.Unlock()
}
