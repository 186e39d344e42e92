package vmm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/internal/testapps"
)

// counterWorkload keeps a worker busy incrementing the enclave counter in
// batches, tolerating the disruptions a migration causes.
var counterWorkload = counterLoop(2000)

// counterLoop is counterWorkload with the given number of steps per ecall.
func counterLoop(steps uint64) WorkloadFunc {
	return func(rt *enclave.Runtime, worker int, stop <-chan struct{}) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := rt.ECall(worker, testapps.CounterRun, steps)
			switch {
			case err == nil:
			case errors.Is(err, enclave.ErrDestroyed):
				return
			case errors.Is(err, enclave.ErrWorkerBusy), errors.Is(err, enclave.ErrMigrating):
				time.Sleep(100 * time.Microsecond)
			default:
				return
			}
		}
	}
}

func newCloud(t testing.TB) (*attest.Service, *core.Owner, *Node, *Node) {
	t.Helper()
	service, err := attest.NewService()
	if err != nil {
		t.Fatal(err)
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewNode(NodeConfig{Name: "node-a", EPCFrames: 8192}, service)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewNode(NodeConfig{Name: "node-b", EPCFrames: 8192}, service)
	if err != nil {
		t.Fatal(err)
	}
	ledger.Check(t, append(nodeHoldings(src), nodeHoldings(dst)...)...)
	return service, owner, src, dst
}

// nodeHoldings names what a node should hold no more of than its running
// VMs need, for ledger.Check: enclaves beyond their processes, and EPC
// frames stray from their guest drivers.
func nodeHoldings(n *Node) []ledger.Holding {
	running := func() []*VM {
		n.mu.Lock()
		defer n.mu.Unlock()
		var vms []*VM
		for _, vm := range n.vms {
			if !vm.Dead() {
				vms = append(vms, vm)
			}
		}
		return vms
	}
	return []ledger.Holding{
		{Kind: "enclaves without a process on " + n.Name, Excess: func() int {
			want := 0
			for _, vm := range running() {
				want += len(vm.OS.Processes())
			}
			return n.Machine.LiveEnclaves() - want
		}},
		{Kind: "stray EPC frames on " + n.Name, Excess: func() int {
			stray := 0
			for _, vm := range running() {
				stray += vm.OS.Host().Mgr.StrayFrames()
			}
			return stray
		}},
	}
}

// awaitCounting waits until every enclave of vm has counted: one of its
// host loops has been inside the enclave. A loop that has not entered when
// a migration is requested is refused by the entry gate, not migrated
// mid-call, and a counter nobody moved says nothing about migrated state.
// The loops are stopped to read the counter (a running loop re-enters its
// worker at once) and started again.
func awaitCounting(t *testing.T, vm *VM) {
	t.Helper()
	for _, p := range vm.OS.Processes() {
		for wait := 100 * time.Microsecond; ; wait *= 2 {
			time.Sleep(wait)
			p.Stop()
			res, err := p.RT.ECall(0, testapps.CounterGet)
			p.start()
			if err != nil {
				t.Fatalf("%s before migrating: %v", p.Name, err)
			}
			if res[0] > 0 {
				break
			}
		}
	}
}

func deployCounter(t testing.TB, owner *core.Owner, nodes ...*Node) {
	t.Helper()
	app := testapps.CounterApp(2)
	owner.ConfigureApp(app)
	dep := core.NewDeployment(app, owner)
	for _, n := range nodes {
		n.Registry.Add(dep)
	}
}

func TestLiveMigrateVMWithEnclaves(t *testing.T) {
	service, owner, src, dst := newCloud(t)
	_ = service
	deployCounter(t, owner, src, dst)

	vm, err := src.CreateVM(VMConfig{Name: "vm1", MemPages: 2048, VCPUs: 4, EPCQuota: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.OS.LaunchPlainProcess("webserver", 128, 200*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	const enclaves = 3
	for i := 0; i < enclaves; i++ {
		if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", i), "counter", owner, counterWorkload); err != nil {
			t.Fatal(err)
		}
	}
	awaitCounting(t, vm)

	resident := residentPages(vm.Mem)
	tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if !vm.Dead() {
		t.Fatal("source VM still alive after migration")
	}
	if stats.EnclaveCount != enclaves {
		t.Fatalf("EnclaveCount = %d, want %d", stats.EnclaveCount, enclaves)
	}
	if min := int64(resident) * PageSize; stats.TransferredBytes < min {
		t.Fatalf("transferred %d bytes, expected at least one copy of the resident memory (%d)", stats.TransferredBytes, min)
	}
	if stats.EnclaveDumpTime <= 0 || stats.EnclaveRestoreTime <= 0 {
		t.Fatalf("missing enclave phase timings: %+v", stats)
	}
	if stats.Downtime <= 0 || stats.TotalTime < stats.Downtime {
		t.Fatalf("inconsistent timing: %+v", stats)
	}
	// Pipeline accounting: the per-phase byte counters partition the total,
	// and the overlap window never exceeds the dump it hides.
	if sum := stats.BulkBytes + stats.PreCopyBytes + stats.StopCopyBytes + stats.EnclaveCtlBytes; sum != stats.TransferredBytes {
		t.Fatalf("phase bytes %d do not partition TransferredBytes %d", sum, stats.TransferredBytes)
	}
	if stats.DumpPrecopyOverlap < 0 || stats.DumpPrecopyOverlap > stats.EnclaveDumpTime {
		t.Fatalf("overlap %v outside [0, dump %v]", stats.DumpPrecopyOverlap, stats.EnclaveDumpTime)
	}
	// The bulk round is the resident pages: everything backed when the
	// migration started, plus at most what the concurrent dump backed before
	// the round was collected — never the memory nobody wrote.
	after := residentPages(vm.Mem)
	if len(stats.RoundDirtyPages) < 2 || stats.RoundDirtyPages[0] < resident || stats.RoundDirtyPages[0] > after {
		t.Fatalf("RoundDirtyPages = %v, want a bulk round of the %d..%d resident pages first",
			stats.RoundDirtyPages, resident, after)
	}
	if resident == 0 || after >= vm.Config.MemPages {
		t.Fatalf("%d of %d guest pages resident: the test no longer has memory nobody wrote", after, vm.Config.MemPages)
	}

	// The migrated enclaves are live and their state moved: counters keep
	// growing on the target.
	tvm.OS.StopAll()
	for _, p := range tvm.OS.Processes() {
		res, err := p.RT.ECall(0, testapps.CounterGet)
		if err != nil {
			t.Fatalf("%s: post-migration ecall: %v", p.Name, err)
		}
		if res[0] == 0 {
			t.Fatalf("%s: migrated counter is zero — state did not move", p.Name)
		}
	}
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMigrateSerialConfig pins the paper's serial Fig. 8 schedule behind
// PaperSchedule: no dump/pre-copy overlap is reported and the migration
// still lands intact.
func TestLiveMigrateSerialConfig(t *testing.T) {
	_, owner, src, dst := newCloud(t)
	deployCounter(t, owner, src, dst)

	vm, err := src.CreateVM(VMConfig{Name: "vm-serial", MemPages: 2048, VCPUs: 4, EPCQuota: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", i), "counter", owner, counterWorkload); err != nil {
			t.Fatal(err)
		}
	}
	awaitCounting(t, vm)

	tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{
		BandwidthBps:  1e9,
		PaperSchedule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DumpPrecopyOverlap != 0 {
		t.Fatalf("serial schedule reported overlap %v", stats.DumpPrecopyOverlap)
	}
	if stats.EnclaveDumpTime <= 0 || stats.EnclaveRestoreTime <= 0 {
		t.Fatalf("missing enclave phase timings: %+v", stats)
	}
	tvm.OS.StopAll()
	for _, p := range tvm.OS.Processes() {
		res, err := p.RT.ECall(0, testapps.CounterGet)
		if err != nil {
			t.Fatalf("%s: post-migration ecall: %v", p.Name, err)
		}
		if res[0] == 0 {
			t.Fatalf("%s: migrated counter is zero", p.Name)
		}
	}
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveMigrateVMWithoutEnclaves(t *testing.T) {
	_, _, src, dst := newCloud(t)
	vm, err := src.CreateVM(VMConfig{Name: "vm-plain", MemPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.OS.LaunchPlainProcess("app", 256, 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EnclaveCount != 0 || stats.EnclaveDumpTime != 0 {
		t.Fatalf("unexpected enclave stats for plain VM: %+v", stats)
	}
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// lateWrite is a page stream's sending half that stores into source guest
// memory from under the nth frame — a guest write placed while the bulk
// round is on the wire.
type lateWrite struct {
	core.Transport
	frames atomic.Int32
	nth    int32
	write  func()
}

func (l *lateWrite) SendFrame(f *core.PageFrame) error {
	if l.frames.Add(1) == l.nth {
		l.write()
	}
	return l.Transport.SendFrame(f)
}

// TestLiveMigrateEveryPage: the bulk round carries the resident pages only,
// and the target must still equal the source over every page of the guest —
// the ones never sent because nobody wrote them, and one in an extent that
// was unbacked when the bulk round was collected and is first written while
// that round is on the wire: the write backs the extent and dirties the
// page, so it rides a later round against a nil (zero) baseline.
func TestLiveMigrateEveryPage(t *testing.T) {
	_, _, src, dst := newCloud(t)
	vm, err := src.CreateVM(VMConfig{Name: "vm-every", MemPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, vm.Mem.Bytes()/2)
	rand.New(rand.NewSource(31)).Read(fill)
	if err := vm.Mem.Write(uint64(len(fill)), fill); err != nil {
		t.Fatal(err)
	}
	app, err := vm.OS.LaunchPlainProcess("app", 96, 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// Back every page the process writes now: the bulk round must carry
	// exactly what is resident here, not what the process has reached by
	// the time the round starts.
	if err := vm.Mem.Write(app.base, make([]byte, app.pages*PageSize)); err != nil {
		t.Fatal(err)
	}
	resident := residentPages(vm.Mem)

	// Extent 0 is the guest's reserved low megabyte: nothing has written it.
	const latePage = 7
	late := bytes.Repeat([]byte("late "), PageSize/5+1)[:PageSize]
	tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{
		BandwidthBps: 250e6,
		TransportFactory: func(name string, s, d core.Transport) (core.Transport, core.Transport) {
			return &lateWrite{Transport: s, nth: 3, write: func() {
				if err := vm.Mem.Write(latePage*PageSize, late); err != nil {
					t.Error(err)
				}
			}}, d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RoundDirtyPages[0] != resident || resident > vm.Config.MemPages-chunkPages {
		t.Fatalf("bulk round of %d pages, %d resident before it, guest of %d with extent 0 unwritten",
			stats.RoundDirtyPages[0], resident, vm.Config.MemPages)
	}
	samePages(t, vm.Mem, tvm.Mem)
	got := make([]byte, PageSize)
	if err := tvm.Mem.Read(latePage*PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, late) {
		t.Fatal("the page first written during the bulk round did not arrive")
	}
	// What nobody wrote was not sent, and did not cost the target memory.
	if n := residentPages(tvm.Mem); n != residentPages(vm.Mem) {
		t.Fatalf("target backs %d pages, source %d", n, residentPages(vm.Mem))
	}
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// samePages fails the test at the first page on which the two memories
// differ.
func samePages(t *testing.T, want, got *GuestMemory) {
	t.Helper()
	a, b := make([]byte, want.Bytes()), make([]byte, got.Bytes())
	if err := want.Read(0, a); err != nil {
		t.Fatal(err)
	}
	if err := got.Read(0, b); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < want.Pages(); p++ {
		if !bytes.Equal(a[p*PageSize:(p+1)*PageSize], b[p*PageSize:(p+1)*PageSize]) {
			t.Fatalf("page %d differs after migration", p)
		}
	}
}

// rewritingVM is a guest whose upper half is random and two plain
// processes rewrite pages of windows that were random before the migration:
// the bulk round ships those pages, and the processes keep storing into
// them from their own goroutines while pre-copy captures them again.
func rewritingVM(t *testing.T, src *Node, name string) *VM {
	t.Helper()
	vm, err := src.CreateVM(VMConfig{Name: name, MemPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	fill := make([]byte, vm.Mem.Bytes()/2)
	rng.Read(fill)
	if err := vm.Mem.Write(uint64(len(fill)), fill); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		app, err := vm.OS.LaunchPlainProcess(fmt.Sprintf("app-%d", i), 128, 20*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		win := make([]byte, app.pages*PageSize)
		rng.Read(win)
		if err := vm.Mem.Write(app.base, win); err != nil {
			t.Fatal(err)
		}
	}
	return vm
}

// TestLiveMigrateRewritesShippedPages: every pre-copy round re-sends pages
// against baselines that the guest's own stores saved, racing the captures
// that arm them; the target must still equal the source page by page, and
// the source must hold no baseline once the migration is done.
func TestLiveMigrateRewritesShippedPages(t *testing.T) {
	_, _, src, dst := newCloud(t)
	vm := rewritingVM(t, src, "vm-rewrite")
	tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 250e6})
	if err != nil {
		t.Fatal(err)
	}
	samePages(t, vm.Mem, tvm.Mem)
	// A rewrite stores 64 bytes into a random page: against the baseline
	// saved for it the re-send is a short delta, against anything else a
	// raw page.
	if stats.PreCopyBytes == 0 || stats.PreCopyWireBytes*4 >= stats.PreCopyBytes {
		t.Fatalf("pre-copy put %d bytes on the wire for %d bytes of rewritten pages: not deltas against their baselines",
			stats.PreCopyWireBytes, stats.PreCopyBytes)
	}
	if n, tracking := heldBaselines(vm.Mem); n != 0 || tracking {
		t.Fatalf("after the migration the source holds %d baselines, tracking %v", n, tracking)
	}
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestStopWaitsForResumedCalls is the regression test for the resumed-call
// race: a restore resumes the calls that were in flight on the source, and
// until they complete they own their worker threads and TCSs. StopAll must
// not return before they have, or the very next ECall fails "worker thread
// already executing an ecall" and a Shutdown "TCS is active on another
// logical processor" / "SECS still has child pages". Long calls keep the
// resumed ones in flight well past the migration's end.
func TestStopWaitsForResumedCalls(t *testing.T) {
	_, owner, src, dst := newCloud(t)
	deployCounter(t, owner, src, dst)
	vm, err := src.CreateVM(VMConfig{Name: "vm-resumed", MemPages: 1024, VCPUs: 4, EPCQuota: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", i), "counter", owner, counterLoop(40000)); err != nil {
			t.Fatal(err)
		}
	}
	awaitCounting(t, vm)
	tvm, _, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	tvm.OS.StopAll()
	for _, p := range tvm.OS.Processes() {
		for w := 0; w < p.RT.App().Workers; w++ {
			if _, err := p.RT.ECall(w, testapps.CounterGet); err != nil {
				t.Fatalf("%s worker %d right after StopAll: %v", p.Name, w, err)
			}
		}
	}
	if err := tvm.Shutdown(); err != nil {
		t.Fatalf("Shutdown right after StopAll: %v", err)
	}
}

// TestLiveMigrateLinkBound pins the simulated link's cost: a migration
// whose time is the link's (incompressible memory, no enclaves) cannot
// finish sooner than its wire bytes take at the configured rate, less the
// shaped pipe's credit — the link clock must not silently become free.
func TestLiveMigrateLinkBound(t *testing.T) {
	// core's unexported linkCredit: how far a shaped pipe may run ahead of
	// its nominal rate.
	const linkCredit = time.Millisecond
	const bps = 250e6
	_, _, src, dst := newCloud(t)
	vm, err := src.CreateVM(VMConfig{Name: "vm-link", MemPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, vm.Mem.Bytes())
	rand.New(rand.NewSource(12)).Read(fill)
	if err := vm.Mem.Write(0, fill); err != nil {
		t.Fatal(err)
	}
	tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: bps})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WireBytes < vm.Mem.Bytes() {
		t.Fatalf("random memory of %d bytes crossed in %d wire bytes", vm.Mem.Bytes(), stats.WireBytes)
	}
	if min := time.Duration(float64(stats.WireBytes)/bps*1e9) - linkCredit; stats.TotalTime < min {
		t.Fatalf("%d wire bytes at %.0f B/s took %v, nominal minus credit is %v", stats.WireBytes, bps, stats.TotalTime, min)
	}
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkChunkSenderBulk runs a bulk round through the whole page
// stream — collect the resident pages, capture, encode, shaped 250 MB/s
// link, apply into a fresh target — for a 2048-page guest whose upper half
// is random and lower half never written, and reports the round's time
// against what the link needs for its wire bytes (1.0 = link-bound).
func BenchmarkChunkSenderBulk(b *testing.B) {
	const pages = 2048
	const bps = 250e6
	srcMem := NewGuestMemory(pages)
	fill := make([]byte, pages/2*PageSize)
	rand.New(rand.NewSource(13)).Read(fill)
	if err := srcMem.Write(pages/2*PageSize, fill); err != nil {
		b.Fatal(err)
	}
	cfg := &LiveMigrationConfig{BandwidthBps: bps}
	var logical, wire int64
	b.ReportAllocs()
	b.SetBytes(pages * PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snd := newChunkSender(srcMem, NewGuestMemory(pages), cfg, nil)
		srcMem.MarkResidentDirty()
		snd.send(srcMem.CollectDirty(), chunkPages, &logical, &wire, telemetry.Context{})
		if err := snd.drain(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/(float64(wire)/bps*1e9), "x-link")
}

// BenchmarkLiveMigrateDowntime is the vm_live shape without the benchmark
// spine — 16 counter enclaves in a 32 MiB guest, upper half incompressible,
// a dirtying plain process, a 250 MB/s link — and reports what the downtime
// window is made of: the whole window, the serial key release inside it,
// the wait for channel legs pre-copy did not hide (0 on a healthy pipeline),
// and stop-and-copy — the final dirty set and the device state, on a link
// the flush left idle — and, beside it, the serial rebuild that follows the
// window. The enclaves carry state but run no workers, so the dump is not
// exposed to the dump-vs-entering-worker race (benchmark/README.md defect 5).
func BenchmarkLiveMigrateDowntime(b *testing.B) {
	const pages = 8192
	const enclaves = 16
	fill := make([]byte, pages/2*PageSize)
	rand.New(rand.NewSource(17)).Read(fill)
	var downtime, keyRelease, restore, channelWait, stopCopy time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, owner, src, dst := newCloud(b)
		deployCounter(b, owner, src, dst)
		vm, err := src.CreateVM(VMConfig{Name: "vm-bench", MemPages: pages, VCPUs: 2, EPCQuota: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Mem.Write(pages/2*PageSize, fill); err != nil {
			b.Fatal(err)
		}
		if _, err := vm.OS.LaunchPlainProcess("app", 256, 200*time.Microsecond); err != nil {
			b.Fatal(err)
		}
		for e := 0; e < enclaves; e++ {
			p, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("e%d", e), "counter", owner, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.RT.ECall(0, testapps.CounterAdd, uint64(e+1)); err != nil {
				b.Fatal(err)
			}
		}
		tr := telemetry.New()
		b.StartTimer()
		tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 250e6, Tracer: tr})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		stopCopy += tr.ByName("vmm.stopcopy")[0].Dur
		downtime += stats.Downtime
		keyRelease += stats.KeyReleaseTime
		restore += stats.EnclaveRestoreTime
		channelWait += stats.ChannelWait
		if err := tvm.Shutdown(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	perOp := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(perOp(downtime), "downtime-ms/op")
	b.ReportMetric(perOp(keyRelease), "keyrelease-ms/op")
	b.ReportMetric(perOp(restore), "restore-ms/op")
	b.ReportMetric(perOp(stopCopy), "stopcopy-ms/op")
	b.ReportMetric(perOp(channelWait), "channelwait-ms/op")
}

// quitOnError is a host loop that gives up on its first failed ecall,
// whatever the error, as a careless application thread would.
func quitOnError(rt *enclave.Runtime, worker int, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if _, err := rt.ECall(worker, testapps.CounterRun, 2000); err != nil {
			return
		}
	}
}

// TestLiveMigrateLoopsThatQuitOnError: a worker's host loop owes the
// migration nothing. A call that is inside the enclave when the migration
// is requested is parked by the runtime, which drives it, not by its
// caller; a call issued afterwards is refused at the entry gate before it
// enters, so its loop may give up without leaving a thread the checkpoint
// records as live. Migrations of VMs whose loops quit on their first error
// restore and verify like any other.
func TestLiveMigrateLoopsThatQuitOnError(t *testing.T) {
	for i := 0; i < 5; i++ {
		_, owner, src, dst := newCloud(t)
		deployCounter(t, owner, src, dst)
		vm, err := src.CreateVM(VMConfig{Name: "vm-quit", MemPages: 512, VCPUs: 4, EPCQuota: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 3; e++ {
			if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", e), "counter", owner, quitOnError); err != nil {
				t.Fatal(err)
			}
		}
		awaitCounting(t, vm)
		tvm, _, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 1e9})
		if err != nil {
			t.Fatalf("migration %d: %v", i, err)
		}
		tvm.OS.StopAll()
		for _, p := range tvm.OS.Processes() {
			if res, err := p.RT.ECall(0, testapps.CounterGet); err != nil || res[0] == 0 {
				t.Fatalf("migration %d: %s answers %d, %v on the target", i, p.Name, res[0], err)
			}
		}
		if err := tvm.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}
