// Package crypt provides the fixture's source, sink and sanitizer.
package crypt

// Decrypt is the fixture taint source: its first result is plaintext.
func Decrypt(sealed []byte) ([]byte, error) {
	out := make([]byte, len(sealed))
	copy(out, sealed)
	return out, nil
}

// Encrypt is the fixture sanitizer: its result is safe anywhere.
func Encrypt(plain []byte) []byte {
	out := make([]byte, len(plain))
	for i, b := range plain {
		out[i] = b ^ 0xAA
	}
	return out
}

// SendOut is the fixture untrusted sink.
func SendOut(b []byte) { _ = b }

// Frame is the fixture bulk frame: its Data leaves the boundary with it.
type Frame struct {
	Pages []int
	Data  []byte
}

// Wire is the fixture transport. SendFrame is a sink in its own right: a
// config that lists only a message-send method never sees bulk data go.
type Wire interface {
	SendFrame(f *Frame) error
}

// Env is the fixture enclave environment.
type Env struct{ outside []byte }

// OutsideStore writes untrusted memory: a sink on a pointer receiver whose
// plaintext argument is not the first.
func (e *Env) OutsideStore(off int, b []byte) error {
	copy(e.outside[off:], b)
	return nil
}
