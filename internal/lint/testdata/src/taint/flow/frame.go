package flow

import "fxtaint/crypt"

// --- frame cases: plaintext that leaves inside a struct argument through
// the transport's frame method. Without the SendFrame sink entry neither
// is seen. ---

// LeakFrame ships plaintext as a frame payload.
func LeakFrame(w crypt.Wire, sealed []byte) error {
	p, _ := crypt.Decrypt(sealed)
	return w.SendFrame(&crypt.Frame{Data: p})
}

// LeakFrameField fills the frame after building it.
func LeakFrameField(w crypt.Wire, sealed []byte) error {
	p, _ := crypt.Decrypt(sealed)
	f := &crypt.Frame{Pages: []int{1}}
	f.Data = p[:8]
	return w.SendFrame(f)
}

// SealedFrameOK re-encrypts before framing.
func SealedFrameOK(w crypt.Wire, sealed []byte) error {
	p, _ := crypt.Decrypt(sealed)
	return w.SendFrame(&crypt.Frame{Data: crypt.Encrypt(p)})
}
