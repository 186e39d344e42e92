package hostproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// MaxMessage bounds the body of one wire message. The largest legitimate
// one is an OpEvents Response carrying a full journal ring (8192 records
// at a few hundred bytes each) or a long trace; 16 MiB leaves room without
// letting a length prefix promise the moon.
const MaxMessage = 16 << 20

// Write sends v — a Command, Response, MachineKey or TraceShipment — as
// one message: a u32 little-endian body length, then the body as JSON, in
// a single Write. The encoding carries no state from one message to the
// next, so the first message on a fresh connection costs what the
// thousandth does; like gob before it, it tolerates fields the peer does
// not know and zeroes the ones it does not send.
func Write(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("hostproto: encode %T: %w", v, err)
	}
	if len(body) > MaxMessage {
		return fmt.Errorf("hostproto: %T of %d bytes exceeds the %d byte message cap", v, len(body), MaxMessage)
	}
	msg := make([]byte, 4, 4+len(body))
	binary.LittleEndian.PutUint32(msg, uint32(len(body)))
	_, err = w.Write(append(msg, body...))
	return err
}

// Read reads one message written by Write into v. The length comes from an
// unauthenticated peer: one over MaxMessage is refused before anything is
// allocated, and the body buffer grows as bytes arrive, so a prefix alone
// buys no memory. A stream that ends before the first byte returns io.EOF,
// one that ends inside a message io.ErrUnexpectedEOF.
func Read(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxMessage {
		return fmt.Errorf("hostproto: message of %d bytes exceeds the %d byte cap", n, MaxMessage)
	}
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if err := json.Unmarshal(body.Bytes(), v); err != nil {
		return fmt.Errorf("hostproto: decode %T: %w", v, err)
	}
	return nil
}
