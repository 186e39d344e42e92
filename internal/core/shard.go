package core

import (
	"sync"

	"repro/internal/enclave"
)

// table is a string-keyed map behind one RWMutex: the registry and the
// session table of a host daemon. It serves a handful of images and a few
// dozen sessions, one map operation per multi-hundred-microsecond request;
// shard it only when a mutex profile shows goroutines waiting here.
type table[V any] struct {
	mu sync.RWMutex
	m  map[string]V // guarded by mu
}

// get returns the value for key.
func (t *table[V]) get(key string) (V, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.m[key]
	return v, ok
}

// set stores key atomically and returns the value it displaced (the zero
// value if none): a concurrent get returns either the previous value or
// the new one, never a partial state.
func (t *table[V]) set(key string, v V) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]V)
	}
	old := t.m[key]
	t.m[key] = v
	return old
}

// delete removes key, reporting whether it was present.
func (t *table[V]) delete(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.m[key]
	delete(t.m, key)
	return ok
}

// length counts entries.
func (t *table[V]) length() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// rangeAll calls f for every entry until f returns false. The read lock is
// held throughout, so f sees one consistent snapshot and must not mutate
// the table (it would deadlock against itself).
func (t *table[V]) rangeAll(f func(key string, v V) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for k, v := range t.m {
		if !f(k, v) {
			return
		}
	}
}

// SessionTable is the table of live enclave sessions a host daemon serves,
// keyed by session name. It backs cmd/sgxhost's launch / call / migrate
// handlers; the lock covers the map operation only, never the call.
type SessionTable struct {
	t table[*enclave.Runtime]
}

// NewSessionTable creates an empty table.
func NewSessionTable() *SessionTable { return &SessionTable{} }

// Add installs a session under name, replacing any previous one
// atomically and returning the displaced runtime (nil if none).
func (s *SessionTable) Add(name string, rt *enclave.Runtime) *enclave.Runtime {
	return s.t.set(name, rt)
}

// Lookup finds a session by name.
func (s *SessionTable) Lookup(name string) (*enclave.Runtime, bool) { return s.t.get(name) }

// Remove deletes a session, reporting whether it existed.
func (s *SessionTable) Remove(name string) bool { return s.t.delete(name) }

// Len counts live sessions.
func (s *SessionTable) Len() int { return s.t.length() }

// Range visits every session until f returns false; f must not mutate the
// table (see table.rangeAll).
func (s *SessionTable) Range(f func(name string, rt *enclave.Runtime) bool) { s.t.rangeAll(f) }
