package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/telemetry"
	"repro/internal/testapps"
	"repro/internal/workload"
)

// kvFilled launches a KV enclave of kvBytes on host, fills it and plants
// one key whose value must survive every hop.
func (w *world) kvFilled(t testing.TB, host *enclave.Host, kvBytes int) (*enclave.Runtime, *enclave.App, uint64, uint64) {
	t.Helper()
	app := workload.KVApp(kvBytes, 1)
	rt := w.launchOn(t, host, app)
	if _, err := rt.ECall(0, workload.KVFill, uint64(kvBytes)); err != nil {
		t.Fatal(err)
	}
	const key = 0xfeedc0de
	if _, err := rt.ECall(0, workload.KVSet, key); err != nil {
		t.Fatal(err)
	}
	got, err := rt.ECall(0, workload.KVGet, key)
	if err != nil || got[0] != 1 {
		t.Fatalf("planted key: %v, found=%d", err, got[0])
	}
	n, err := rt.ECall(0, workload.KVLen)
	if err != nil {
		t.Fatal(err)
	}
	return rt, app, n[0], got[2]
}

func checkKV(t testing.TB, rt *enclave.Runtime, slots, word uint64) {
	t.Helper()
	n, err := rt.ECall(0, workload.KVLen)
	if err != nil || n[0] != slots {
		t.Fatalf("KVLen = %d, %v; want %d", n[0], err, slots)
	}
	got, err := rt.ECall(0, workload.KVGet, 0xfeedc0de)
	if err != nil || got[0] != 1 || got[2] != word {
		t.Fatalf("planted key: found=%d word=%#x, %v; want word %#x", got[0], got[2], err, word)
	}
}

// TestBounceUnderEPCPressure (regression): a KV enclave that does not fit
// its EPC share bounces between the same two constrained hosts. Each hop
// destroys an instance that still has pages in swap; ForgetEnclave used to
// leave their versions in the hardware VA slots while marking the slots
// free, and the next eviction on that host failed with ErrVASlot — on the
// third hop, the first that returns to a used host.
func TestBounceUnderEPCPressure(t *testing.T) {
	w := newWorld(t)
	const frames = 160 // for 256 heap pages
	hosts := []*enclave.Host{enclave.NewConstrainedHost(w.mA, frames), enclave.NewConstrainedHost(w.mB, frames)}
	rt, app, slots, word := w.kvFilled(t, hosts[0], 1<<20)
	_, reg := w.deploy(app)
	for hop := 1; hop <= 10; hop++ {
		dst := hosts[hop%2]
		ev0, _ := dst.Mgr.Stats()
		_, inc := runMigration(t, rt, dst, reg, w.opts())
		// The host reclaims the self-destroyed source, pages in swap and all.
		if err := rt.Destroy(); err != nil {
			t.Fatal(err)
		}
		rt = inc.Runtime
		checkKV(t, rt, slots, word)
		if ev1, _ := dst.Mgr.Stats(); ev1 == ev0 {
			t.Fatalf("hop %d: no eviction on the target, the hosts are not under pressure", hop)
		}
	}
	// Ledger: with the last instance gone, each host is back to every frame
	// but its VA pages, and those did not multiply hop over hop.
	if err := rt.Destroy(); err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		if free := h.Mgr.FreeFrames(); free < frames-2 {
			t.Fatalf("host %d: %d of %d frames free after ten hops", i, free, frames)
		}
	}
}

// TestBigStateOnSmallHost (regression): building, filling and migrating the
// 8 MiB KV app where fewer than half its pages fit keeps more than a
// thousand pages in swap — three VA pages' worth. The second VA page used
// to be asked of a pool that was, by construction, full.
func TestBigStateOnSmallHost(t *testing.T) {
	if testing.Short() {
		t.Skip("8 MiB enclave")
	}
	w := newWorld(t)
	const frames = 1024 // for 2048 heap pages
	src, dst := enclave.NewConstrainedHost(w.mA, frames), enclave.NewConstrainedHost(w.mB, frames)
	rt, app, slots, word := w.kvFilled(t, src, 8<<20)
	_, reg := w.deploy(app)
	_, inc := runMigration(t, rt, dst, reg, w.opts())
	checkKV(t, inc.Runtime, slots, word)
	if ev, _ := dst.Mgr.Stats(); ev <= 2*sgx.VASlotsPerPage {
		t.Fatalf("target evicted %d pages; the test needs more than two VA pages' worth", ev)
	}
}

// TestRecvBulkBoundedByLayout: the checkpoint announcement precedes any
// authentication, and the target stages each segment in the enclave it has
// already built. A peer that announces more frames than a counter enclave's
// largest checkpoint fills — up to the 1 GiB the old fixed cap allowed —
// and then sends nothing must be refused before a frame is read, with
// ErrProtocol and under 1 MiB allocated. So must a checkpoint announced with
// no frames, a frame of another kind, and a payload running past
// MaxCheckpointSize. Every refusal frees the EPC of the target's build.
func TestRecvBulkBoundedByLayout(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	w.owner.ConfigureApp(app)
	dep, reg := w.deploy(app)

	// run plays a peer that announces the image and then sends ckpt.
	run := func(ckpt func(Transport)) (error, uint64) {
		t1, t2 := testPipe(t)
		go func() {
			_ = t1.Send(Message{Kind: MsgImage, Blob: imageBlob(app.Name, dep.Sig.Measurement, app.Workers+1)})
			ckpt(t1)
		}()
		// A receiver that believes the announcement waits for frames that
		// never come; hang up on it rather than hang the test.
		hangUp := time.AfterFunc(5*time.Second, func() { _ = t1.Close() })
		defer hangUp.Stop()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := MigrateIn(w.hostB, reg, t2, w.opts())
		runtime.ReadMemStats(&after)
		_ = t1.Close()
		return err, after.TotalAlloc - before.TotalAlloc
	}
	announce := func(n uint32) func(Transport) {
		return func(p Transport) { _ = p.Send(Message{Kind: MsgCheckpoint, Frames: n}) }
	}

	limit := enclave.MaxCheckpointSize(app.Layout())
	fits := uint32((limit + bulkSegment - 1) / bulkSegment)
	for _, n := range []uint32{fits + 1, 4096, 1<<32 - 1} {
		err, allocated := run(announce(n))
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("announcing %d frames: %v, want ErrProtocol", n, err)
		}
		if allocated >= 1<<20 {
			t.Fatalf("announcing %d frames made the receiver allocate %d bytes", n, allocated)
		}
	}

	for _, tc := range []struct {
		name string
		ckpt func(Transport)
	}{
		{"no frames", func(p Transport) {
			_ = p.Send(Message{Kind: MsgCheckpoint, Blob: []byte("an inline checkpoint")})
		}},
		{"a page frame", func(p Transport) {
			_ = p.Send(Message{Kind: MsgCheckpoint, Frames: 1})
			_ = p.SendFrame(&PageFrame{Kind: FrameRaw, Pages: []int{0}, Data: make([]byte, PageSize)})
		}},
		// As many frames as the limit fills, one byte more than it.
		{"past MaxCheckpointSize", func(p Transport) {
			_ = p.Send(Message{Kind: MsgCheckpoint, Frames: fits})
			for left := limit + 1; left > 0; left -= bulkSegment {
				if left <= bulkSegment+1 {
					_ = p.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, left)})
					return
				}
				_ = p.SendFrame(&PageFrame{Kind: FrameBlob, Data: make([]byte, bulkSegment)})
			}
		}},
	} {
		if err, _ := run(tc.ckpt); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: %v, want ErrProtocol", tc.name, err)
		}
	}
}

// TestTamperedCheckpointRefused flips one bit in each region of the
// checkpoint — header, salt, sealed leaf, final record, tag — and feeds
// it to a fresh target. Every restore must be refused and the target torn
// down with its EPC returned, while the source, whose dump was only a
// snapshot, carries on and the pristine blob still resumes. The owner-keyed
// path is used because it lets one checkpoint be offered many times; the
// in-enclave open-verify-restore code is the migration path's.
func TestTamperedCheckpointRefused(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	w.owner.ConfigureApp(app)
	dep, reg := w.deploy(app)
	hdrLen := enclave.HeaderWireSize(app.Workers + 1)

	src := w.launch(t, app)
	if _, err := src.ECall(0, testapps.CounterAdd, 9); err != nil {
		t.Fatal(err)
	}
	blob, err := OwnerCheckpoint(w.owner, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		at   int
	}{
		{"header measurement", 8},
		{"header salt", 60},
		{"header flags", hdrLen - 10},
		{"header migK", hdrLen - 4},
		{"leaf", hdrLen + 3},
		{"body", hdrLen + (len(blob)-hdrLen)/2},
		{"final record", len(blob) - tcb.SealOverhead - 1}, // the sealed leaf count
		{"tag", len(blob) - 1},
	} {
		bad := append([]byte(nil), blob...)
		bad[tc.at] ^= 0x01
		if _, err := OwnerResume(w.owner, w.hostB, dep, bad); err == nil {
			t.Fatalf("%s: target resumed from a tampered checkpoint", tc.name)
		}
	}
	if _, err := OwnerResume(w.owner, w.hostB, dep, blob[:len(blob)-1]); err == nil {
		t.Fatal("target resumed from a truncated checkpoint")
	}

	if res, err := src.ECall(0, testapps.CounterGet); err != nil || res[0] != 9 {
		t.Fatalf("source after the refused resumes: %d, %v", res[0], err)
	}
	inc, err := OwnerResume(w.owner, w.hostB, dep, blob)
	if err != nil {
		t.Fatalf("pristine checkpoint: %v", err)
	}
	own(t, inc.Runtime)
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 9 {
		t.Fatalf("resumed counter = %d, %v", res[0], err)
	}

	// On the migration path a checkpoint the target's host already rejects
	// never gets as far as the key release: the source cancels and resumes.
	opts := w.opts()
	if _, err := Prepare(src, opts); err != nil {
		t.Fatal(err)
	}
	ckpt, _, err := Dump(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := testPipe(t)
	inErr := make(chan error, 1)
	go func() {
		_, err := MigrateIn(w.hostB, reg, t2, opts)
		inErr <- err
	}()
	if _, err := MigrateOutPrepared(src, ckpt[:hdrLen-2], t1, opts); err == nil {
		t.Fatal("source completed a migration of a truncated checkpoint")
	}
	if err := <-inErr; err == nil {
		t.Fatal("target accepted a truncated checkpoint")
	}
	if res, err := src.ECall(0, testapps.CounterGet); err != nil || res[0] != 9 {
		t.Fatalf("source after the cancelled migration: %d, %v", res[0], err)
	}
}

// ckptRecord, ckptLeaf and finalRecord are the checkpoint's geometry,
// restated here rather than taken from the enclave package so that a change
// to the format fails these tests: a (lin u32, page) record per non-TCS
// page, sealed 256 records to a leaf, and a final record holding the leaf
// count.
const (
	ckptRecord  = 4 + sgx.PageSize
	ckptLeaf    = 256 * ckptRecord
	finalRecord = 4
)

// openedCheckpoint is a checkpoint taken apart with the key.
type openedCheckpoint struct {
	hdr    enclave.CheckpointHeader
	head   []byte   // the header's bytes
	leaves [][]byte // each leaf's records, opened
	sealed [][]byte // each leaf as sealed
	final  []byte   // the final record, opened
}

// openLeaves opens every record of blob under key and fails the test unless
// they tile it exactly: the header, then one record per ckptLeaf of page
// records sealed under its index and the leaf count, each
// tcb.LeafSize(cipher, plaintext) bytes, then the final record under index
// count.
func openLeaves(t *testing.T, blob []byte, key tcb.Key) openedCheckpoint {
	t.Helper()
	var o openedCheckpoint
	var err error
	if o.hdr, _, err = enclave.UnmarshalHeader(blob); err != nil {
		t.Fatal(err)
	}
	o.head = blob[:enclave.HeaderWireSize(int(o.hdr.Threads))]
	records := (int(o.hdr.TotalPages) - int(o.hdr.Threads)) * ckptRecord
	count := (records + ckptLeaf - 1) / ckptLeaf
	s, err := tcb.NewLeafSealer(o.hdr.Cipher, key, o.hdr.Salt[:])
	if err != nil {
		t.Fatal(err)
	}
	off := len(o.head)
	open := func(n, index int) ([]byte, []byte) {
		size, err := tcb.LeafSize(o.hdr.Cipher, n)
		if err != nil || off+size > len(blob) {
			t.Fatalf("record %d of %d bytes runs past the %d-byte checkpoint (%v)", index, size, len(blob), err)
		}
		rec := blob[off : off+size]
		off += size
		pt, err := s.Open(append([]byte(nil), rec...), o.head, uint32(index), uint32(count))
		if err != nil || len(pt) != n {
			t.Fatalf("record %d opens to %d bytes, %v; want %d", index, len(pt), err, n)
		}
		return rec, pt
	}
	for i := 0; i < count; i++ {
		rec, pt := open(min(ckptLeaf, records-i*ckptLeaf), i)
		o.sealed = append(o.sealed, rec)
		o.leaves = append(o.leaves, pt)
	}
	_, o.final = open(finalRecord, count)
	if off != len(blob) {
		t.Fatalf("the records end at %d of %d bytes", off, len(blob))
	}
	return o
}

// reseal seals leaves and the final record again under key and o's header
// and salt — what a holder of the key can do.
func (o openedCheckpoint) reseal(t *testing.T, key tcb.Key, leaves [][]byte) []byte {
	t.Helper()
	s, err := tcb.NewLeafSealer(o.hdr.Cipher, key, o.hdr.Salt[:])
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), o.head...)
	count := uint32(len(leaves))
	seal := func(pt []byte, index uint32) {
		size, _ := tcb.LeafSize(o.hdr.Cipher, len(pt))
		env := make([]byte, size)
		copy(env, pt)
		if err := s.Seal(env, len(pt), o.head, index, count); err != nil {
			t.Fatal(err)
		}
		out = append(out, env...)
	}
	for i, leaf := range leaves {
		seal(leaf, uint32(i))
	}
	seal(o.final, count)
	return out
}

// bigCounter is the counter app with a heap of 600 pages, so that its
// checkpoint body spans three leaves, the last one short.
func bigCounter() *enclave.App {
	app := testapps.CounterApp(1)
	app.HeapPages = 600
	return app
}

// TestCheckpointFormatUnchanged decodes a checkpoint from the outside —
// header, each leaf opened as its own record under the header's salt, the
// (lin, page) records, and the final record's leaf count — for every
// cipher, and resumes from it. The owner path is used because there the
// test holds the key.
func TestCheckpointFormatUnchanged(t *testing.T) {
	for _, cipher := range []tcb.CheckpointCipher{tcb.CipherAESGCM, tcb.CipherRC4, tcb.CipherDES} {
		t.Run(cipher.String(), func(t *testing.T) {
			w := newWorld(t)
			app := bigCounter()
			rt := w.launch(t, app)
			dep, _ := w.deploy(app)
			if _, err := rt.ECall(0, testapps.CounterAdd, 1234); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.CtlCall(enclave.SelCtlSetCipher, uint64(cipher)); err != nil {
				t.Fatal(err)
			}
			blob, err := OwnerCheckpoint(w.owner, rt)
			if err != nil {
				t.Fatal(err)
			}

			layout := rt.Layout()
			o := openLeaves(t, blob, w.owner.kencrypt)
			hdr := o.hdr
			if hdr.Cipher != cipher || !hdr.OwnerKeyed || int(hdr.TotalPages) != layout.TotalPages() {
				t.Fatalf("header: %+v", hdr)
			}
			if !bytes.Equal(o.head, enclave.MarshalHeader(hdr)) {
				t.Fatal("header bytes are not the marshalled header")
			}
			if len(o.leaves) != 3 {
				t.Fatalf("%d leaves, want 3", len(o.leaves))
			}
			payload := bytes.Join(o.leaves, nil)
			if n := binary.LittleEndian.Uint32(o.final); n != 3 {
				t.Fatalf("the final record counts %d leaves, want 3", n)
			}
			if len(payload) != (layout.TotalPages()-layout.Threads)*ckptRecord {
				t.Fatalf("payload is %d bytes, want a record for each of %d non-TCS pages", len(payload), layout.TotalPages()-layout.Threads)
			}
			next := 0
			for off := 0; off < len(payload); off += ckptRecord {
				for layout.IsTCS(sgx.PageNum(next)) {
					next++
				}
				if lin := binary.LittleEndian.Uint32(payload[off:]); int(lin) != next {
					t.Fatalf("record %d is page %d, want %d", off/ckptRecord, lin, next)
				}
				next++
			}
			if magic := payload[4:12]; string(magic) != "1VGIMXGS" { // controlMagic, little-endian
				t.Fatalf("control page does not lead the payload: %q", magic)
			}

			inc, err := OwnerResume(w.owner, w.hostB, dep, blob)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			own(t, inc.Runtime)
			res, err := inc.Runtime.ECall(0, testapps.CounterGet)
			if err != nil || res[0] != 1234 {
				t.Fatalf("resumed counter = %d, %v", res[0], err)
			}
		})
	}
}

// TestCheckpointIndependentOfGOMAXPROCS: a checkpoint's leaves are sealed
// and opened on as many goroutines as GOMAXPROCS allows, but the leaf is a
// format constant, so a checkpoint dumped with one of them restores with two
// and the reverse — what a migration between hosts of different core counts
// does.
func TestCheckpointIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w := newWorld(t)
	app := bigCounter()
	rt := w.launch(t, app)
	dep, _ := w.deploy(app)
	if _, err := rt.ECall(0, testapps.CounterAdd, 77); err != nil {
		t.Fatal(err)
	}
	for i, procs := range [][2]int{{1, 2}, {2, 1}} {
		runtime.GOMAXPROCS(procs[0])
		blob, err := OwnerCheckpoint(w.owner, rt)
		if err != nil {
			t.Fatalf("dump with GOMAXPROCS %d: %v", procs[0], err)
		}
		runtime.GOMAXPROCS(procs[1])
		inc, err := OwnerResume(w.owner, []*enclave.Host{w.hostB, w.hostA}[i], dep, blob)
		if err != nil {
			t.Fatalf("dump with GOMAXPROCS %d, restore with %d: %v", procs[0], procs[1], err)
		}
		own(t, inc.Runtime)
		if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 77 {
			t.Fatalf("dump with GOMAXPROCS %d, restore with %d: counter = %d, %v", procs[0], procs[1], res[0], err)
		}
		rt = inc.Runtime
	}
}

// TestResealedTamperRefused pins what re-sealing a checkpoint can and cannot
// do. The records' tags are the checkpoint's only integrity check, so a
// holder of the key — here the owner, under Kencrypt — can produce any
// checkpoint it likes: the counter's heap word altered and every record
// sealed again restores, counter and all. What the enclave refuses whoever
// sealed it is a record naming a page it may not restore — a TCS page, or
// one past the enclave's end. The record is the last of the last leaf, and
// the checkpoint is refused as bad before any page is written back: the
// control page, the first record, still reads as the target's own
// (restoring, never audited, never restored) rather than the source's.
func TestResealedTamperRefused(t *testing.T) {
	w := newWorld(t)
	app := bigCounter()
	src := w.launch(t, app)
	dep, _ := w.deploy(app)
	if _, err := src.ECall(0, testapps.CounterAdd, 5); err != nil {
		t.Fatal(err)
	}
	blob, err := OwnerCheckpoint(w.owner, src)
	if err != nil {
		t.Fatal(err)
	}
	o := openLeaves(t, blob, w.owner.kencrypt)
	hdr, layout := o.hdr, src.Layout()
	reseal := func(alter func(leaves [][]byte)) []byte {
		leaves := make([][]byte, len(o.leaves))
		for i, leaf := range o.leaves {
			leaves[i] = append([]byte(nil), leaf...)
		}
		alter(leaves)
		return o.reseal(t, w.owner.kencrypt, leaves)
	}
	last := len(o.leaves) - 1
	lastRecord := len(o.leaves[last]) - ckptRecord

	tgt, err := ownerTarget(w.owner, w.hostB, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tgt.Destroy() }()
	for _, tc := range []struct {
		name string
		lin  uint32
	}{
		{"a TCS page", uint32(layout.TCSPage(1))},
		{"a page past the enclave", uint32(layout.TotalPages())},
	} {
		bad := reseal(func(l [][]byte) { binary.LittleEndian.PutUint32(l[last][lastRecord:], tc.lin) })
		if err := tgt.WriteShared(enclave.SharedCkptOff, bad); err != nil {
			t.Fatal(err)
		}
		_, err := restore(tgt, tgt.Shared(), hdr, len(bad), true, nil)
		var ee *enclave.EnclaveError
		if !errors.As(err, &ee) || !strings.Contains(ee.Error(), "bad checkpoint") {
			t.Fatalf("a record naming %s: restore = %v, want the enclave's bad-checkpoint refusal", tc.name, err)
		}
		st, err := tgt.CtlCall(enclave.SelCtlStatus)
		if err != nil {
			t.Fatal(err)
		}
		if state, audits, restored := st[0], st[3], st[5]; state != 3 || audits != 0 || restored != 0 {
			t.Fatalf("a record naming %s: control page after the refusal reads state %d, %d audits, restored %d; want the target's own 3, 0, 0", tc.name, state, audits, restored)
		}
	}

	forged := reseal(func(l [][]byte) {
		for i, leaf := range l {
			for off := 0; off < len(leaf); off += ckptRecord {
				if sgx.PageNum(binary.LittleEndian.Uint32(leaf[off:])) == layout.HeapBase() {
					binary.LittleEndian.PutUint64(l[i][off+4:], 1_000_000)
					return
				}
			}
		}
		t.Fatal("no record of the counter's heap page")
	})
	if err := tgt.WriteShared(enclave.SharedCkptOff, forged); err != nil {
		t.Fatal(err)
	}
	inc, err := restore(tgt, tgt.Shared(), hdr, len(forged), true, nil)
	if err != nil {
		t.Fatalf("a checkpoint the key holder altered and re-sealed: %v", err)
	}
	if res, err := inc.Runtime.ECall(0, testapps.CounterGet); err != nil || res[0] != 1_000_000 {
		t.Fatalf("restored counter = %d, %v; want the key holder's 1000000", res[0], err)
	}
}

// TestOwnerCheckpointsNeverReuseNonce: the owner's Kencrypt seals every
// owner checkpoint of an enclave, so no two may seal under the same (key,
// nonce) pair. Two checkpoints dumped back to back carry different salts,
// and their second leaves — heap pages nothing wrote in between, the same
// plaintext at the same index — differ in every 16-byte block of
// ciphertext: the two key streams never coincide.
func TestOwnerCheckpointsNeverReuseNonce(t *testing.T) {
	w := newWorld(t)
	rt := w.launch(t, bigCounter())
	a, err := OwnerCheckpoint(w.owner, rt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OwnerCheckpoint(w.owner, rt)
	if err != nil {
		t.Fatal(err)
	}
	oa, ob := openLeaves(t, a, w.owner.kencrypt), openLeaves(t, b, w.owner.kencrypt)
	if oa.hdr.Salt == ob.hdr.Salt {
		t.Fatal("two owner checkpoints carry the same salt")
	}
	if !bytes.Equal(oa.leaves[1], ob.leaves[1]) {
		t.Fatal("the second leaves differ in plaintext; the test needs them equal")
	}
	ca, cb := oa.sealed[1], ob.sealed[1]
	for off := 0; off+16 <= len(ca); off += 16 {
		if bytes.Equal(ca[off:off+16], cb[off:off+16]) {
			t.Fatalf("the same plaintext sealed to the same block at offset %d of the second leaf in both checkpoints", off)
		}
	}
}

// holdCheckpoint is a source-side transport that does not let the
// checkpoint announcement out until release is closed and then the peer's
// first message is in, or a few seconds have passed. It reports that
// message's kind on first, and hands the message to the source's next
// Recv.
type holdCheckpoint struct {
	Transport
	release <-chan struct{}
	first   chan MsgKind
	early   chan received
}

type received struct {
	m   Message
	err error
}

func (h *holdCheckpoint) Send(m Message) error {
	if m.Kind == MsgCheckpoint {
		<-h.release
		early := make(chan received, 1)
		h.early = early
		go func() {
			m, err := h.Transport.Recv()
			early <- received{m, err}
		}()
		select {
		case r := <-early:
			h.first <- r.m.Kind
			early <- r
		case <-time.After(5 * time.Second):
			h.first <- 0
		}
	}
	return h.Transport.Send(m)
}

func (h *holdCheckpoint) Recv() (Message, error) {
	if early := h.early; early != nil {
		h.early = nil
		r := <-early
		return r.m, r.err
	}
	return h.Transport.Recv()
}

// TestTargetBuildsBeforeCheckpointArrives: the image announcement leaves
// before the source quiesces, and restore Step-1 and the target's hello
// need nothing else, so the target builds its virgin enclave and sends its
// hello while the source is still dumping. Here the checkpoint is held back
// until the target's build span has ended and then until the hello is in:
// a target that only builds, or only says hello, once the checkpoint is in
// would wait for ever.
func TestTargetBuildsBeforeCheckpointArrives(t *testing.T) {
	w := newWorld(t)
	app := testapps.CounterApp(1)
	src := w.launch(t, app)
	_, reg := w.deploy(app)
	tr := telemetry.New()
	root := tr.Begin("hop")
	defer root.End()
	opts := w.opts()
	opts.Trace = root

	t1, t2 := testPipe(t)
	built := make(chan struct{})
	go func() {
		defer close(built)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if len(tr.ByName("core.target.build")) == 1 {
				return
			}
		}
		t.Error("no enclave built on the target while the checkpoint was held back")
	}()
	inErr := make(chan error, 1)
	go func() {
		inc, err := MigrateIn(w.hostB, reg, t2, opts)
		if err == nil {
			if dErr := inc.Runtime.Destroy(); dErr != nil {
				t.Error(dErr)
			}
		}
		inErr <- err
	}()
	hold := &holdCheckpoint{Transport: t1, release: built, first: make(chan MsgKind, 1)}
	if _, err := MigrateOut(src, hold, opts); err != nil {
		t.Fatalf("MigrateOut: %v", err)
	}
	if err := <-inErr; err != nil {
		t.Fatalf("MigrateIn: %v", err)
	}
	if k := <-hold.first; k != MsgHello {
		t.Fatalf("with the checkpoint held the source received message %d, want the hello (%d)", k, MsgHello)
	}
}
