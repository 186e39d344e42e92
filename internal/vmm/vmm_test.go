package vmm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/sgx"
)

func TestGuestMemoryDirtyTracking(t *testing.T) {
	g := NewGuestMemory(16)
	if got := g.CollectDirty(); len(got) != 0 {
		t.Fatalf("fresh memory dirty: %v", got)
	}
	if err := g.Write(PageSize+100, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := g.Write(5*PageSize-2, []byte("span")); err != nil { // crosses 4->5
		t.Fatal(err)
	}
	dirty := g.CollectDirty()
	want := map[int]bool{1: true, 4: true, 5: true}
	if len(dirty) != 3 {
		t.Fatalf("dirty = %v", dirty)
	}
	for _, p := range dirty {
		if !want[p] {
			t.Fatalf("unexpected dirty page %d", p)
		}
	}
	// Collect clears.
	if got := g.CollectDirty(); len(got) != 0 {
		t.Fatalf("dirty after collect: %v", got)
	}
	// Reads don't dirty; ApplyPage doesn't dirty.
	buf := make([]byte, 8)
	if err := g.Read(PageSize+100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:5], []byte("hello")) {
		t.Fatalf("read back %q", buf)
	}
	g.ApplyPage(7, make([]byte, PageSize))
	if got := g.CollectDirty(); len(got) != 0 {
		t.Fatalf("ApplyPage dirtied: %v", got)
	}
}

// TestGuestMemoryClaimedWindow pins the owned-window rule of the pipelined
// engine: once the local guest has claimed a window, a migration frame that
// carries one of its pages leaves that page byte-identical and still
// installs its neighbours — raw or delta, where the skipped page's delta
// bytes must be consumed or every later page in the frame decodes garbage.
func TestGuestMemoryClaimedWindow(t *testing.T) {
	g := NewGuestMemory(8)
	if err := g.ClaimWindow(8*PageSize-1, 2); err == nil {
		t.Fatal("out-of-range claim accepted")
	}
	// Claim pages 3 and 4 with a window that starts and ends mid-page.
	if err := g.ClaimWindow(3*PageSize+100, PageSize); err != nil {
		t.Fatal(err)
	}
	local := bytes.Repeat([]byte("local"), PageSize/5+1)[:PageSize]
	for _, p := range []int{2, 3, 4, 5} {
		if err := g.Write(uint64(p)*PageSize, local); err != nil {
			t.Fatal(err)
		}
	}
	page := func(p int) []byte {
		b := make([]byte, PageSize)
		g.CopyPage(p, b)
		return b
	}

	pages := []int{2, 3, 4, 5}
	migrated := bytes.Repeat([]byte{0xAB}, len(pages)*PageSize)
	g.ApplyPages(pages, migrated)
	for _, p := range []int{3, 4} {
		if !bytes.Equal(page(p), local) {
			t.Fatalf("ApplyPages overwrote claimed page %d", p)
		}
	}
	for _, p := range []int{2, 5} {
		if !bytes.Equal(page(p), migrated[:PageSize]) {
			t.Fatalf("ApplyPages skipped unclaimed page %d of the same frame", p)
		}
	}

	// Deltas of different sizes against the 0xAB baseline, so a skipped
	// page that did not advance the offset misdecodes page 5.
	var src []byte
	var sizes []int
	want := make(map[int][]byte)
	for i, p := range pages {
		next := bytes.Repeat([]byte{0xAB}, PageSize)
		copy(next[64*i:], bytes.Repeat([]byte{byte(p)}, 16*(i+1)))
		want[p] = next
		d := core.XORDeltaEncode(nil, migrated[:PageSize], next)
		src = append(src, d...)
		sizes = append(sizes, len(d))
	}
	if err := g.ApplyPageDeltas(pages, sizes, src); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{3, 4} {
		if !bytes.Equal(page(p), local) {
			t.Fatalf("ApplyPageDeltas touched claimed page %d", p)
		}
	}
	for _, p := range []int{2, 5} {
		if !bytes.Equal(page(p), want[p]) {
			t.Fatalf("ApplyPageDeltas misapplied unclaimed page %d of the same frame", p)
		}
	}

	// Released, the window takes migrated content again.
	g.ReleaseWindows()
	g.ApplyPages(pages, migrated)
	if !bytes.Equal(page(3), migrated[:PageSize]) {
		t.Fatal("released window still refuses migrated content")
	}
}

func TestGuestMemoryBounds(t *testing.T) {
	g := NewGuestMemory(2)
	if err := g.Write(2*PageSize-1, []byte{1, 2}); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := g.Read(2*PageSize, make([]byte, 1)); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := g.Region(PageSize, 2*PageSize); err == nil {
		t.Fatal("out-of-range region accepted")
	}
}

func TestRegionRoundTrip(t *testing.T) {
	g := NewGuestMemory(8)
	r, err := g.Region(2*PageSize, 3*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		o := uint64(off) % (2 * PageSize)
		if len(data) > PageSize {
			data = data[:PageSize]
		}
		if err := r.Store(o, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := r.Load(o, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	// Region writes mark VM pages dirty (that's how checkpoints ride the
	// pre-copy stream).
	g.CollectDirty()
	if err := r.Store(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if d := g.CollectDirty(); len(d) != 1 || d[0] != 2 {
		t.Fatalf("region write dirty set = %v", d)
	}
}

func TestHypervisorQuotas(t *testing.T) {
	m, err := sgx.NewMachine(sgx.Config{Name: "hv", EPCFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	hv := NewHypervisor(m)
	srcA := hv.GrantEPC("vm-a", 4)
	srcB := hv.GrantEPC("vm-b", 100) // overcommits physical
	for i := 0; i < 4; i++ {
		if _, err := srcA(); err != nil {
			t.Fatalf("vm-a grant %d: %v", i, err)
		}
	}
	if _, err := srcA(); !errors.Is(err, ErrQuotaReached) {
		t.Fatalf("vm-a beyond quota: %v", err)
	}
	// vm-b can take the remaining 60 physical frames, then hits exhaustion.
	granted := 0
	for {
		_, err := srcB()
		if err != nil {
			if !errors.Is(err, ErrEPCExhausted) {
				t.Fatalf("vm-b: %v", err)
			}
			break
		}
		granted++
	}
	if granted != 60 {
		t.Fatalf("vm-b granted %d frames, want 60", granted)
	}
	usage := hv.EPCUsage()
	if usage["vm-a"] != 4 || usage["vm-b"] != 60 {
		t.Fatalf("usage: %v", usage)
	}
}

func TestVMLifecycle(t *testing.T) {
	service, err := attest.NewService()
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{Name: "n", EPCFrames: 2048}, service)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := node.CreateVM(VMConfig{Name: "v1", MemPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.CreateVM(VMConfig{Name: "v1"}); err == nil {
		t.Fatal("duplicate VM name accepted")
	}
	if _, err := vm.OS.LaunchPlainProcess("p", 16, 200*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for vm.Mem.DirtyCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("plain process never dirtied memory")
		}
		time.Sleep(time.Millisecond)
	}
	if err := vm.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !vm.Dead() {
		t.Fatal("shutdown VM not dead")
	}
	// Name is free again.
	if _, err := node.CreateVM(VMConfig{Name: "v1", MemPages: 128}); err != nil {
		t.Fatal(err)
	}
}

func TestGuestSharedAllocator(t *testing.T) {
	service, _ := attest.NewService()
	node, err := NewNode(NodeConfig{Name: "n2", EPCFrames: 2048}, service)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := node.CreateVM(VMConfig{Name: "tiny", MemPages: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust guest memory with plain windows.
	var lastErr error
	for i := 0; i < 100; i++ {
		if _, lastErr = vm.OS.LaunchPlainProcess("w", 64, time.Hour); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("guest memory never exhausted")
	}
	_ = vm.Shutdown()
}
