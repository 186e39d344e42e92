package hostproto

import (
	"net"
	"sync"
	"time"
)

// IdleTimeout is how long a daemon waits for the next command on a
// connection: the first one of a fresh connection, and each one after it
// on a kept-open connection. A peer that connects and goes quiet, or
// announces a length and never sends the bytes, must not hold a goroutine
// and a socket for good. Every keep-alive lifetime derives from it.
const IdleTimeout = 10 * time.Second

// KeepAlive is how long a Pool keeps an idle connection: half the daemon's
// IdleTimeout, so a pooled connection expires well before the daemon's idle
// clock can close it under a request about to be written.
const KeepAlive = IdleTimeout / 2

// MaxIdlePerAddr bounds a Pool's idle connections to one address; returning
// one more closes the oldest.
const MaxIdlePerAddr = 4

// Pool keeps connections to daemons open between requests, each with a
// value of its owner's (a buffered reader, a migration stream). A
// connection goes in only after a clean exchange, with nothing unread, and
// comes out only while it is younger than KeepAlive and still open. The
// zero Pool is ready to use.
type Pool[V any] struct {
	mu     sync.Mutex
	idle   map[string][]pooled[V] // guarded by mu; per address, oldest first
	closed bool                   // guarded by mu
}

type pooled[V any] struct {
	nc    net.Conn
	v     V
	since time.Time
}

// Get takes the most recently returned connection to addr that is still
// open and not expired; the ones it passes over are closed. ok is false
// when there is none: dial.
func (p *Pool[V]) Get(addr string) (nc net.Conn, v V, ok bool) {
	for {
		p.mu.Lock()
		list := p.idle[addr]
		if len(list) == 0 {
			p.mu.Unlock()
			return nil, v, false
		}
		c := list[len(list)-1]
		list[len(list)-1] = pooled[V]{}
		p.idle[addr] = list[:len(list)-1]
		p.mu.Unlock()
		if time.Since(c.since) < KeepAlive && Alive(c.nc) {
			return c.nc, c.v, true
		}
		_ = c.nc.Close()
	}
}

// Put returns nc to the pool for addr. It closes instead when the pool is
// closed, and closes the oldest connection to addr when that makes more
// than MaxIdlePerAddr; expired connections to any address go too.
func (p *Pool[V]) Put(addr string, nc net.Conn, v V) {
	now := time.Now()
	var drop []net.Conn
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = nc.Close()
		return
	}
	if p.idle == nil {
		p.idle = make(map[string][]pooled[V])
	}
	for a, list := range p.idle {
		n := 0
		for n < len(list) && now.Sub(list[n].since) >= KeepAlive {
			drop = append(drop, list[n].nc)
			n++
		}
		if n == len(list) {
			delete(p.idle, a)
		} else if n > 0 {
			p.idle[a] = append(list[:0], list[n:]...)
		}
	}
	list := append(p.idle[addr], pooled[V]{nc: nc, v: v, since: now})
	if len(list) > MaxIdlePerAddr {
		drop = append(drop, list[0].nc)
		list = append(list[:0], list[1:]...)
	}
	p.idle[addr] = list
	p.mu.Unlock()
	for _, c := range drop {
		_ = c.Close()
	}
}

// Close closes every idle connection; whatever is returned afterwards is
// closed on the spot.
func (p *Pool[V]) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, list := range idle {
		for _, c := range list {
			_ = c.nc.Close()
		}
	}
}
