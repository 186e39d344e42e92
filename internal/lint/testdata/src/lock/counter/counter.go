// Package counter exercises the lockdiscipline rule.
package counter

import "sync"

// Counter is a mutex-protected counter.
type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// New constructs via composite literal, which needs no lock.
func New() *Counter {
	return &Counter{n: 0}
}

// Inc locks the guarding mutex before touching n.
func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// incLocked declares via its suffix that the caller holds mu.
func (c *Counter) incLocked() {
	c.n++
}

// IncTwice is a legitimate caller of the *Locked helper.
func (c *Counter) IncTwice() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.incLocked()
	c.incLocked()
}

// Racy reads n without the lock: the rule's positive case.
func (c *Counter) Racy() int {
	return c.n
}

// Suppressed shows a justified suppression.
func (c *Counter) Suppressed() int {
	//lint:ignore lockdiscipline approximate read used only in a log line
	return c.n
}

// BadIgnore carries a suppression with no justification, which is itself
// a finding (and does not suppress).
func (c *Counter) BadIgnore() int {
	//lint:ignore lockdiscipline
	return c.n
}

// --- flow-sensitive cases: a syntactic "lock appears somewhere in the
// body" reimplementation gets every one of these wrong. ---

// AfterUnlock reads n again after releasing mu: the body contains a Lock
// call, but the second read is unprotected.
func (c *Counter) AfterUnlock() int {
	c.mu.Lock()
	v := c.n
	c.mu.Unlock()
	return v + c.n // findings: read after unlock
}

// TryFail touches n on the failed-TryLock branch: the lock is NOT held
// there.
func (c *Counter) TryFail() int {
	if !c.mu.TryLock() {
		return c.n // finding: TryLock failed on this branch
	}
	defer c.mu.Unlock()
	return c.n
}

// TrySuccess is the guard idiom the runtime uses: after the failed branch
// returns, the fallthrough path holds the lock.
func (c *Counter) TrySuccess() (int, bool) {
	if !c.mu.TryLock() {
		return 0, false
	}
	v := c.n
	c.mu.Unlock()
	return v, true
}

// TryBound binds the TryLock result to a local before branching on it.
func (c *Counter) TryBound() int {
	ok := c.mu.TryLock()
	if ok {
		defer c.mu.Unlock()
		return c.n
	}
	return 0
}

// DeferEarlyReturn holds the lock across every exit via defer.
func (c *Counter) DeferEarlyReturn(p bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p {
		return c.n
	}
	return -c.n
}

// CondUnlock releases early on one path; the tail access only happens on
// the path that still holds the lock.
func (c *Counter) CondUnlock(p bool) int {
	c.mu.Lock()
	if p {
		c.mu.Unlock()
		return 0
	}
	v := c.n
	c.mu.Unlock()
	return v
}

// BadCondUnlock merges a released path back into the tail: the access is
// not protected on every path.
func (c *Counter) BadCondUnlock(p bool) int {
	c.mu.Lock()
	if p {
		c.mu.Unlock()
	}
	v := c.n // finding: mu released on the p path
	if !p {
		c.mu.Unlock()
	}
	return v
}

// GoroutineLit accesses n from a literal launched on another goroutine:
// the enclosing Lock does not protect it.
func (c *Counter) GoroutineLit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // finding: runs outside the critical section
	}()
}

// SyncLit runs the literal synchronously at a point where mu is held, so
// the creation-point fact covers the access.
func (c *Counter) SyncLit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	get := func() int { return c.n }
	return get()
}

// SpinAcquire loops on TryLock until it succeeds: the loop-exit edge is
// the success edge.
func (c *Counter) SpinAcquire() int {
	for !c.mu.TryLock() {
	}
	defer c.mu.Unlock()
	return c.n
}

// Table is a generic guarded struct: go/types mints fresh field objects
// per instantiation, so both the guard and the mutex must be looked up
// through their declared origin.
type Table[V any] struct {
	mu sync.Mutex
	m  map[string]V // guarded by mu
}

// Put locks the guard of the instantiated receiver.
func (t *Table[V]) Put(k string, v V) {
	t.mu.Lock()
	t.m[k] = v
	t.mu.Unlock()
}

// Peek reads m without the lock.
func (t *Table[V]) Peek(k string) V {
	return t.m[k] // finding: generic receiver, guard not held
}

// PutInt goes through a concrete instantiation from outside a method.
func PutInt(t *Table[int], k string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[k]++
}

// Number bumps n without the lock, as a handler that numbers what it
// serves would: a read-modify-write that a test running one request at a
// time never races.
func (c *Counter) Number() {
	c.n++
}
