package vmm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sgx"
	"repro/internal/telemetry"
	"repro/internal/testapps"
)

// faultWorld is a source VM whose pre-copy outlasts its channel legs by a
// wide margin — 4 MiB of incompressible memory over a 50 MB/s link is an
// 80 ms bulk round, the two legs take a few — so a fault injected into a
// leg fires, and must be acted on, while the guest is still running.
type faultWorld struct {
	vm    *VM
	dst   *Node
	plain *PlainProcess
	tr    *telemetry.Tracer
	// epcBase is the target machine's EPC occupancy before the migration.
	epcBase int
}

const faultLinkBps = 50e6

func newFaultWorld(t *testing.T, name string) *faultWorld {
	t.Helper()
	_, owner, src, dst := newCloud(t)
	deployCounter(t, owner, src, dst)
	vm, err := src.CreateVM(VMConfig{Name: name, MemPages: 1024, VCPUs: 4, EPCQuota: 2048})
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, vm.Mem.Bytes())
	rand.New(rand.NewSource(23)).Read(fill)
	if err := vm.Mem.Write(0, fill); err != nil {
		t.Fatal(err)
	}
	plain, err := vm.OS.LaunchPlainProcess("app", 32, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", i), "counter", owner, counterWorkload); err != nil {
			t.Fatal(err)
		}
	}
	awaitCounting(t, vm)
	return &faultWorld{vm: vm, dst: dst, plain: plain, tr: telemetry.New(), epcBase: usedFrames(dst.Machine)}
}

// usedFrames counts the machine's occupied EPC frames.
func usedFrames(m *sgx.Machine) int {
	n := 0
	for f := 0; f < m.NumFrames(); f++ {
		if !m.FrameFree(sgx.FrameIndex(f)) {
			n++
		}
	}
	return n
}

// counts stops the source enclaves' host loops and reads every counter.
func (w *faultWorld) counts(t *testing.T) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, p := range w.vm.OS.Processes() {
		p.Stop()
		res, err := p.RT.ECall(0, testapps.CounterGet)
		if err != nil {
			t.Fatalf("%s after failed migration: %v", p.Name, err)
		}
		out[p.Name] = res[0]
	}
	return out
}

// assertUnwound checks what every failed pre-commit migration must leave
// behind: a live source whose guest was never paused and whose enclaves
// have resumed and keep counting, a target node with the half-built VM gone
// and its EPC back where it was, and a closed trace.
func (w *faultWorld) assertUnwound(t *testing.T, tvm *VM, stats *LiveMigrationStats, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("migration succeeded despite injected fault")
	}
	if tvm != nil || stats != nil {
		t.Fatal("failed migration returned a target VM")
	}
	if w.vm.Dead() {
		t.Fatal("source VM marked dead after failed migration")
	}
	select {
	case <-w.plain.stop:
		t.Fatalf("guest was paused for a fault that fired during pre-copy: %v", err)
	default:
	}
	if len(w.tr.ByName("vmm.downtime")) != 0 {
		t.Fatalf("failed migration opened a downtime window: %v", err)
	}
	if got := usedFrames(w.dst.Machine); got != w.epcBase {
		t.Fatalf("target node holds %d EPC frames after failed migration, %d before", got, w.epcBase)
	}
	// The half-built target VM was removed from the node: its name and EPC
	// grant are free again.
	probe, perr := w.dst.CreateVM(w.vm.Config)
	if perr != nil {
		t.Fatalf("target VM not released after failed migration: %v", perr)
	}
	if err := probe.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Every enclave resumed: its counter answers, and counts on once its
	// host loops run again.
	before := w.counts(t)
	for name, n := range before {
		if n == 0 {
			t.Fatalf("%s never counted before the failed migration", name)
		}
	}
	for wait := time.Millisecond; ; wait *= 2 {
		for _, p := range w.vm.OS.Processes() {
			p.start()
		}
		time.Sleep(wait)
		stuck := ""
		for name, after := range w.counts(t) {
			if after <= before[name] {
				stuck = fmt.Sprintf("%s counted %d → %d", name, before[name], after)
			}
		}
		if stuck == "" {
			return
		}
		if wait > 2*time.Second {
			t.Fatalf("%s in %v after the failed migration", stuck, 2*wait)
		}
	}
}

// awaitGoroutines fails the test if more than max goroutines are still
// running after a grace period: nothing may stay parked on a dead channel.
func awaitGoroutines(t *testing.T, max int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > max {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), max, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLiveMigrateEnclaveFaultUnwinds (regression for the receive-goroutine
// leak): a transport fault in one enclave's channel leg must unwind the
// whole VM migration — the source VM keeps running with every enclave
// resumed, the sibling leg is released, the half-built target VM is torn
// down, and no goroutine stays parked on the dead channel. failAt sweeps
// every transport operation of a leg on either half (source: image send,
// checkpoint announcement, its bulk frame, hello receive, channel send,
// channel-ok receive; the target mirrors them) — all before key release,
// so the migration is still fully cancellable, and all of them now during
// pre-copy, so the guest must not have been paused for it.
func TestLiveMigrateEnclaveFaultUnwinds(t *testing.T) {
	for _, half := range []string{"source", "target"} {
		for failAt := 1; failAt <= 6; failAt++ {
			half, failAt := half, failAt
			name := fmt.Sprintf("failAt=%d", failAt)
			if half == "target" {
				name = "target/" + name
			}
			t.Run(name, func(t *testing.T) {
				maxGoroutines := runtime.NumGoroutine() + 4
				w := newFaultWorld(t, "vm-fault")
				// The page stream stalls mid-bulk until the fault has fired:
				// however long the leg takes to get there on a loaded machine,
				// the collector is still in the bulk round, the guest running.
				var faulty atomic.Pointer[core.FaultyTransport]
				tripped := func() bool {
					ft := faulty.Load()
					return ft != nil && ft.Ops() >= failAt
				}
				stalled := &stalledStream{ready: tripped}
				cfg := &LiveMigrationConfig{
					BandwidthBps: faultLinkBps,
					Tracer:       w.tr,
					TransportFactory: func(name string, s, d core.Transport) (core.Transport, core.Transport) {
						switch {
						case name == PageStreamName:
							stalled.Transport = s
							return stalled, d
						case name != "enc-0":
							return s, d
						case half == "source":
							ft := core.NewFaultyTransport(s, failAt, true)
							faulty.Store(ft)
							return ft, d
						default:
							ft := core.NewFaultyTransport(d, failAt, true)
							faulty.Store(ft)
							return s, ft
						}
					},
				}
				tvm, stats, err := LiveMigrate(w.vm, w.dst, cfg)
				if stalled.gaveUp.Load() {
					t.Fatalf("enc-0's leg never reached operation %d (the migration ended with %v)", failAt, err)
				}
				w.assertUnwound(t, tvm, stats, err)

				// A second migration attempt from the same source succeeds.
				// Its workers need no head start: one that has not entered
				// when the migration is requested is refused at the gate and
				// calls again afterwards.
				for _, p := range w.vm.OS.Processes() {
					p.start()
				}
				tvm2, _, err := LiveMigrate(w.vm, w.dst, &LiveMigrationConfig{BandwidthBps: 1e9})
				if err != nil {
					t.Fatalf("retry migration after fault: %v", err)
				}
				tvm2.OS.StopAll()
				for _, p := range tvm2.OS.Processes() {
					if res, err := p.RT.ECall(0, testapps.CounterGet); err != nil || res[0] == 0 {
						t.Fatalf("%s after retry migration: %v %v", p.Name, res, err)
					}
				}
				if err := tvm2.Shutdown(); err != nil {
					t.Fatal(err)
				}
				awaitGoroutines(t, maxGoroutines)
			})
		}
	}
}

// stalledStream is a page stream that carries its first frames and then
// stalls, the collector parked mid-bulk behind it, until ready reports
// true; with cut set the link is then severed under the sender. It waits
// at most stallBound, once: a ready that never comes (a leg that failed
// before the point the test waits for) sets gaveUp, and from then on every
// frame passes unheld, so the migration runs on and the test fails instead
// of hanging.
type stalledStream struct {
	core.Transport
	frames atomic.Int32
	ready  func() bool
	cut    bool
	gaveUp atomic.Bool
}

// stallBound is the longest a stalledStream holds the page stream.
const stallBound = 10 * time.Second

func (s *stalledStream) SendFrame(f *core.PageFrame) error {
	if s.frames.Add(1) > 4 && !s.gaveUp.Load() {
		for deadline := time.Now().Add(stallBound); !s.ready(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				s.gaveUp.Store(true)
				break
			}
		}
		if s.cut {
			_ = s.Transport.Close()
		}
	}
	return s.Transport.SendFrame(f)
}

// legWatch counts down as each leg's target half sends its last pre-commit
// message: at zero the legs are up.
type legWatch struct {
	core.Transport
	left *atomic.Int32
}

func (l *legWatch) Send(m core.Message) error {
	err := l.Transport.Send(m)
	if m.Kind == core.MsgChannelOK {
		l.left.Add(-1)
	}
	return err
}

// flushCut severs the page stream while the collector waits in flush. It
// holds the first frame past the bulk round's pages — what else the
// iterative rounds queue fits behind it — until the trace shows vmm.flush
// open, then cuts the link under it.
type flushCut struct {
	core.Transport
	tr   *telemetry.Tracer
	bulk int // pages of the bulk round
	sent int // pages carried so far; the sender goroutine's only
}

func (c *flushCut) SendFrame(f *core.PageFrame) error {
	if c.sent += len(f.Pages); c.sent > c.bulk {
		for !spanOpen(c.tr, "vmm.flush") {
			time.Sleep(100 * time.Microsecond)
		}
		_ = c.Transport.Close()
	}
	return c.Transport.SendFrame(f)
}

// spanOpen reports whether the trace holds a span of that name, running or
// finished: the Chrome export is the one view that lists running spans.
func spanOpen(tr *telemetry.Tracer, name string) bool {
	var buf bytes.Buffer
	_ = tr.WriteChromeTrace(&buf)
	return bytes.Contains(buf.Bytes(), []byte(`"`+name+`"`))
}

// TestLiveMigratePageStreamFaultUnwinds: the page stream dies after every
// channel leg is up — built target enclaves, attested channels, prepared
// sources, all waiting for a commit that can no longer come. The legs are
// launched the moment the dump lands, beside the bulk round, and the stream
// stalls mid-bulk until the last of them reports, so the order of events is
// fixed. Cut right there, the migration must notice at
// the round boundary; cut while the collector waits for the queue to empty
// before pausing the guest, at the look it takes after the flush. Either way
// every leg is released and the guest never paused.
func TestLiveMigratePageStreamFaultUnwinds(t *testing.T) {
	for _, during := range []string{"bulk", "flush"} {
		during := during
		t.Run(during, func(t *testing.T) {
			maxGoroutines := runtime.NumGoroutine() + 4
			w := newFaultWorld(t, "vm-stream-fault")
			var left atomic.Int32
			left.Store(int32(len(w.vm.OS.Processes())))
			cfg := &LiveMigrationConfig{
				BandwidthBps: faultLinkBps,
				Tracer:       w.tr,
				TransportFactory: func(name string, s, d core.Transport) (core.Transport, core.Transport) {
					if name != PageStreamName {
						return s, &legWatch{Transport: d, left: &left}
					}
					stalled := &stalledStream{Transport: s, ready: func() bool { return left.Load() == 0 }, cut: during == "bulk"}
					if during == "flush" {
						return &flushCut{Transport: stalled, tr: w.tr, bulk: residentPages(w.vm.Mem)}, d
					}
					return stalled, d
				},
			}
			tvm, stats, err := LiveMigrate(w.vm, w.dst, cfg)
			w.assertUnwound(t, tvm, stats, err)
			if legs := w.tr.ByName("vmm.enclave.channel"); len(legs) != 2 {
				t.Fatalf("want both channel legs in the trace, got %d", len(legs))
			}
			// The flush is reached only by a stream that was healthy at every
			// round boundary.
			if n := len(w.tr.ByName("vmm.flush")); (n == 1) != (during == "flush") {
				t.Fatalf("stream cut during %s: %d vmm.flush spans in the trace", during, n)
			}
			w.vm.OS.StopAll()
			if err := w.vm.Shutdown(); err != nil {
				t.Fatal(err)
			}
			awaitGoroutines(t, maxGoroutines)
		})
	}
}

// afterBulk is a page stream that carries the bulk round's pages and fails
// every frame after them, closing the link.
type afterBulk struct {
	core.Transport
	bulk int // pages of the bulk round
	sent int // pages carried so far; the sender goroutine's only
}

func (a *afterBulk) SendFrame(f *core.PageFrame) error {
	if a.sent >= a.bulk {
		_ = a.Transport.Close()
		f.Release()
		return core.ErrInjectedFault
	}
	a.sent += len(f.Pages)
	return a.Transport.SendFrame(f)
}

// TestLiveMigrateFailureDropsBaselines: the page stream dies right after
// the bulk round, with the guest rewriting shipped pages. The failed
// migration leaves the source holding no baseline and its stores untracked,
// and a second migration, to a target that holds nothing, arrives page for
// page: no page is still armed against the first one's peer.
func TestLiveMigrateFailureDropsBaselines(t *testing.T) {
	_, _, src, dst := newCloud(t)
	vm := rewritingVM(t, src, "vm-drop")
	_, _, err := LiveMigrate(vm, dst, &LiveMigrationConfig{
		BandwidthBps: 250e6,
		TransportFactory: func(name string, s, d core.Transport) (core.Transport, core.Transport) {
			return &afterBulk{Transport: s, bulk: residentPages(vm.Mem)}, d
		},
	})
	if !errors.Is(err, core.ErrInjectedFault) {
		t.Fatalf("migration over a stream cut after the bulk round: %v", err)
	}
	if n, tracking := heldBaselines(vm.Mem); n != 0 || tracking {
		t.Fatalf("after the failure the source holds %d baselines, tracking %v", n, tracking)
	}
	if err := vm.Mem.Write(uint64(vm.Mem.Bytes()-PageSize), []byte("shipped once")); err != nil {
		t.Fatal(err)
	}
	if n, _ := heldBaselines(vm.Mem); n != 0 {
		t.Fatalf("a store after the failure saved %d baselines", n)
	}
	tvm, _, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 250e6})
	if err != nil {
		t.Fatal(err)
	}
	samePages(t, vm.Mem, tvm.Mem)
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMigrateTargetCollision: the earliest error path — the target node
// already hosts a VM with that name — leaves the source completely
// untouched.
func TestLiveMigrateTargetCollision(t *testing.T) {
	_, owner, src, dst := newCloud(t)
	deployCounter(t, owner, src, dst)
	vm, err := src.CreateVM(VMConfig{Name: "vm-dup", MemPages: 512, VCPUs: 2, EPCQuota: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.OS.LaunchEnclaveProcess("enc", "counter", owner, counterWorkload); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.CreateVM(VMConfig{Name: "vm-dup", MemPages: 512}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 1e9}); err == nil {
		t.Fatal("migration into an occupied VM slot succeeded")
	}
	vm.OS.StopAll()
	for _, p := range vm.OS.Processes() {
		if _, err := p.RT.ECall(0, testapps.CounterGet); err != nil {
			t.Fatalf("source enclave after collision: %v", err)
		}
	}
	if err := vm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
