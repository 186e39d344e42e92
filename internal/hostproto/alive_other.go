//go:build !unix

package hostproto

import "net"

// Alive cannot look at the socket on this platform; a pooled connection is
// protected by its KeepAlive expiry alone.
func Alive(net.Conn) bool { return true }
