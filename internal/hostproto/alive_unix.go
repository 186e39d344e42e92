//go:build unix

package hostproto

import (
	"net"
	"syscall"
)

// Alive reports whether a kept-open connection can carry the next request:
// the peer has not closed it and nothing arrived on it unasked. It is one
// non-blocking read, which must find the socket empty (EAGAIN). A read
// under an already-expired deadline would not do: the runtime reports the
// timeout before it looks at the socket, so a closed peer's EOF goes unseen.
// A connection that exposes no file descriptor counts as alive; only its
// KeepAlive expiry then protects it.
func Alive(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	var buf [1]byte
	var rerr error
	if err := rc.Read(func(fd uintptr) bool {
		_, rerr = syscall.Read(int(fd), buf[:])
		return true
	}); err != nil {
		return false
	}
	return rerr == syscall.EAGAIN
}
