package attack

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/testapps"
)

// bigCounter is the counter app with a 600-page heap: its checkpoint body
// spans three leaves, the last one short.
func bigCounter() *enclave.App {
	app := testapps.CounterApp(1)
	app.HeapPages = 600
	return app
}

// Under AES-GCM a leaf of 256 (lin, page) records seals to its plaintext
// plus a 16-byte tag, and the final record — the leaf count — to 4 + 16
// bytes. Restated here so that a change to the format fails these tests.
const (
	sealedFullLeaf = 256*(4+sgx.PageSize) + 16
	sealedFinal    = 4 + 16
)

// splitLeaves cuts an AES-GCM checkpoint into its header, its sealed leaves
// and its sealed final record.
func splitLeaves(t *testing.T, blob []byte, threads int) (head []byte, leaves [][]byte, final []byte) {
	t.Helper()
	head = blob[:enclave.HeaderWireSize(threads)]
	final = blob[len(blob)-sealedFinal:]
	for body := blob[len(head) : len(blob)-sealedFinal]; len(body) > 0; {
		n := min(sealedFullLeaf, len(body))
		leaves = append(leaves, body[:n])
		body = body[n:]
	}
	if len(leaves) != 3 {
		t.Fatalf("%d leaves, want 3", len(leaves))
	}
	return head, leaves, final
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestLeafTamperRefusedBeforeWriteBack: the checkpoint is sealed leaf by
// leaf, and a network attacker can cut the stream on leaf boundaries. The
// source has self-destroyed and the target holds Kmigrate; it is then
// offered the checkpoint with a leaf dropped, repeated or moved, cut short,
// a leaf byte flipped, and the final record forged. Each is refused by the
// enclave before any page is written back — the control page still reads
// as the target's own (restoring, never restored) — and the same target
// then restores the untouched checkpoint.
func TestLeafTamperRefusedBeforeWriteBack(t *testing.T) {
	w := sim.NewTestWorld(t, sim.Config{Machines: 2})
	dep := w.Deploy(bigCounter())
	src, err := w.Launch(dep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ECall(0, testapps.CounterAdd, 77); err != nil {
		t.Fatal(err)
	}
	opts := w.Opts()
	if _, err := core.Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err := core.Dump(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := enclave.UnmarshalHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := enclave.BuildSigned(w.Hosts[1], dep.App, dep.Sig)
	if err != nil {
		t.Fatal(err)
	}
	w.Own(tgt)
	if err := core.EstablishChannel(src, tgt, w.Service); err != nil {
		t.Fatal(err)
	}
	head, leaves, final := splitLeaves(t, blob, int(hdr.Threads))
	flipped := append([]byte(nil), blob...)
	flipped[len(head)+len(leaves[0])+100] ^= 0x01
	forged := append([]byte(nil), final...)
	for i := range forged {
		forged[i] = byte(i)
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"a leaf dropped", join(head, leaves[0], leaves[2], final)},
		{"a leaf repeated", join(head, leaves[0], leaves[0], leaves[2], final)},
		{"two leaves swapped", join(head, leaves[1], leaves[0], leaves[2], final)},
		{"the final record dropped", join(head, leaves[0], leaves[1], leaves[2])},
		{"cut inside the last leaf", blob[:len(blob)-sealedFinal-100]},
		{"a leaf byte flipped", flipped},
		{"the final record forged", join(head, leaves[0], leaves[1], leaves[2], forged)},
		{"the final record in a leaf's place", join(head, leaves[0], leaves[1], final, final)},
	} {
		if err := tgt.WriteShared(enclave.SharedCkptOff, tc.blob); err != nil {
			t.Fatal(err)
		}
		_, err := core.Restore(tgt, hdr, len(tc.blob), opts)
		var ee *enclave.EnclaveError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: restore = %v, want the enclave's refusal", tc.name, err)
		}
		st, err := tgt.CtlCall(enclave.SelCtlStatus)
		if err != nil {
			t.Fatal(err)
		}
		if state, restored := st[0], st[5]; state != 3 || restored != 0 {
			t.Fatalf("%s: control page after the refusal reads state %d, restored %d; want the target's own 3, 0", tc.name, state, restored)
		}
	}
	if err := tgt.WriteShared(enclave.SharedCkptOff, blob); err != nil {
		t.Fatal(err)
	}
	inc, err := core.Restore(tgt, hdr, len(blob), opts)
	if err != nil {
		t.Fatalf("the untouched checkpoint: %v", err)
	}
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 77 {
		t.Fatalf("restored counter = %d, %v", res[0], err)
	}
	if err := inc.Runtime.Destroy(); err != nil {
		t.Fatal(err)
	}
}

// leafRewriter holds the checkpoint back from the wire, rewrites it whole
// and sends the result in its place, in 256 KiB segments as the source
// does: a network attacker patient enough to buffer a checkpoint.
type leafRewriter struct {
	core.Transport
	rewrite func([]byte) []byte
	frames  uint32 // segments of the checkpoint still to collect
	buf     []byte
}

func (r *leafRewriter) Send(m core.Message) error {
	if m.Kind == core.MsgCheckpoint {
		r.frames, r.buf = m.Frames, nil
		return nil
	}
	return r.Transport.Send(m)
}

func (r *leafRewriter) SendFrame(f *core.PageFrame) error {
	if r.frames == 0 || f.Kind != core.FrameBlob {
		return r.Transport.SendFrame(f)
	}
	r.buf = append(r.buf, f.Data...)
	f.Release()
	if r.frames--; r.frames > 0 {
		return nil
	}
	out := r.rewrite(r.buf)
	const segment = 256 << 10
	if err := r.Transport.Send(core.Message{Kind: core.MsgCheckpoint, Frames: uint32((len(out) + segment - 1) / segment)}); err != nil {
		return err
	}
	for off := 0; off < len(out); off += segment {
		if err := r.Transport.SendFrame(&core.PageFrame{Kind: core.FrameBlob, Data: out[off:min(off+segment, len(out))]}); err != nil {
			return err
		}
	}
	return nil
}

// TestSwappedLeavesOnWireLoseNeverFork: over a real MigrateOut/MigrateIn,
// the wire swaps two leaves of the checkpoint. Nothing the target's host can
// see is wrong, so the protocol runs to the key release and the source
// destroys itself; the target enclave refuses the leaves and is torn down.
// The instance is lost, never forked: the source is dead, and the world's
// ledger check finds no enclave and no stray EPC frame left on the target.
func TestSwappedLeavesOnWireLoseNeverFork(t *testing.T) {
	w := sim.NewTestWorld(t, sim.Config{Machines: 2})
	dep := w.Deploy(bigCounter())
	src, err := w.Launch(dep, 0)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := w.Pipe()
	rw := &leafRewriter{Transport: t1, rewrite: func(blob []byte) []byte {
		head, leaves, final := splitLeaves(t, blob, dep.App.Workers+1)
		return join(head, leaves[1], leaves[0], leaves[2], final)
	}}
	_, outErr, inErr := migrateOver(w, src, rw, t2)
	var ee *enclave.EnclaveError
	if !errors.As(inErr, &ee) {
		t.Fatalf("target: %v, want the enclave's refusal", inErr)
	}
	if outErr == nil {
		t.Fatal("source believed a migration its target refused")
	}
	if _, err := src.ECall(0, testapps.CounterGet); !errors.Is(err, enclave.ErrDestroyed) {
		t.Fatalf("source after the key release: %v, want ErrDestroyed", err)
	}
}

// TestLeavesSwappedBetweenCheckpointsRefused: two owner checkpoints of one
// enclave are sealed under the same long-lived Kencrypt, so a leaf of one
// is a well-formed record of the same size and index in the other. Each
// checkpoint's salt keys its records apart: a leaf or final record spliced
// in from the other, or the other's header put on its records, is refused,
// and no refusal leaves an enclave or an EPC frame behind on the target (the
// world's ledger check).
func TestLeavesSwappedBetweenCheckpointsRefused(t *testing.T) {
	w := sim.NewTestWorld(t, sim.Config{Machines: 2})
	dep := w.Deploy(bigCounter())
	src, err := w.Launch(dep, 0)
	if err != nil {
		t.Fatal(err)
	}
	var blobs [2][]byte
	for i := range blobs {
		if _, err := src.ECall(0, testapps.CounterAdd, 1); err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = core.OwnerCheckpoint(w.Owner, src); err != nil {
			t.Fatal(err)
		}
	}
	threads := dep.App.Workers + 1
	ha, la, fa := splitLeaves(t, blobs[0], threads)
	hb, lb, fb := splitLeaves(t, blobs[1], threads)
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"the other's first leaf", join(ha, lb[0], la[1], la[2], fa)},
		{"the other's second leaf", join(ha, la[0], lb[1], la[2], fa)},
		{"the other's final record", join(ha, la[0], la[1], la[2], fb)},
		{"the other's header", join(hb, la[0], la[1], la[2], fa)},
	} {
		if _, err := core.OwnerResume(w.Owner, w.Hosts[1], dep, tc.blob); err == nil {
			t.Fatalf("%s: target resumed from a spliced checkpoint", tc.name)
		}
	}
	inc, err := core.OwnerResume(w.Owner, w.Hosts[1], dep, blobs[0])
	if err != nil {
		t.Fatalf("the untouched first checkpoint: %v", err)
	}
	w.Own(inc.Runtime)
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 1 {
		t.Fatalf("resumed counter = %d, %v; want 1", res[0], err)
	}
}
