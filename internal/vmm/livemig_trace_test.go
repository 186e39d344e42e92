package vmm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// linkLog is a page stream's sending half that notes, per frame, how many
// pages it carried and when it was off the link, on the tracer's clock.
// Frames are sent one at a time, the last of them by drain: no lock.
type linkLog struct {
	core.Transport
	epoch time.Time
	sent  []linkFrame
}

type linkFrame struct {
	pages int
	off   time.Duration // SendFrame returned: the frame has crossed the link
}

func (l *linkLog) SendFrame(f *core.PageFrame) error {
	pages := len(f.Pages)
	err := l.Transport.SendFrame(f)
	l.sent = append(l.sent, linkFrame{pages, time.Since(l.epoch)})
	return err
}

// traceVM builds a small enclave-carrying VM and migrates it with a live
// tracer attached, returning the tracer for shape assertions and the page
// stream's link log.
func traceVM(t *testing.T, serial bool) (*telemetry.Tracer, *LiveMigrationStats, []linkFrame) {
	t.Helper()
	_, owner, src, dst := newCloud(t)
	deployCounter(t, owner, src, dst)
	vm, err := src.CreateVM(VMConfig{Name: "vm-trace", MemPages: 2048, VCPUs: 4, EPCQuota: 2048})
	if err != nil {
		t.Fatal(err)
	}
	// Incompressible memory over a slow link: an 80 ms bulk round, so the
	// dump/pre-copy interleaving is visible and the channel legs (a few ms
	// for two enclaves) have pre-copy to hide behind.
	fill := make([]byte, vm.Mem.Bytes())
	rand.New(rand.NewSource(29)).Read(fill)
	if err := vm.Mem.Write(0, fill); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", i), "counter", owner, counterWorkload); err != nil {
			t.Fatal(err)
		}
	}
	awaitCounting(t, vm)

	tr := telemetry.New()
	// Taken after the tracer's own epoch, so the log reads a hair early
	// against span times: it can excuse a frame by microseconds, never
	// accuse one.
	link := &linkLog{epoch: time.Now()}
	tvm, stats, err := LiveMigrate(vm, dst, &LiveMigrationConfig{
		BandwidthBps:  100e6,
		PaperSchedule: serial,
		Tracer:        tr,
		Metrics:       telemetry.NewMetrics(),
		TransportFactory: func(name string, s, d core.Transport) (core.Transport, core.Transport) {
			if name == PageStreamName {
				link.Transport = s
				return link, d
			}
			return s, d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tvm.OS.StopAll()
		if err := tvm.Shutdown(); err != nil {
			t.Fatal(err)
		}
	})
	return tr, stats, link.sent
}

// interval returns the [start, end] of the single span with this name.
func interval(t *testing.T, tr *telemetry.Tracer, name string) (time.Duration, time.Duration) {
	t.Helper()
	recs := tr.ByName(name)
	if len(recs) != 1 {
		t.Fatalf("want exactly one %q span, got %d", name, len(recs))
	}
	return recs[0].Start, recs[0].Start + recs[0].Dur
}

// TestLiveMigrateTraceShape checks that the pipelined engine's trace tells
// the pipelining story: the enclave dump span runs on its own track and
// overlaps the memory transfer, every channel leg has ended before the
// guest is paused, only key release is inside the window and the rebuild
// follows it, and every expected phase span is present. No span is left
// open: the world's ledger check sees that at teardown.
func TestLiveMigrateTraceShape(t *testing.T) {
	tr, stats, link := traceVM(t, false)

	// vmm.dumpwait and vmm.channelwait are deliberately absent: they only
	// appear when the dump or a channel leg outlasts pre-copy convergence,
	// which a healthy pipeline avoids.
	for _, name := range []string{
		"vmm.livemigrate", "vmm.dump", "vmm.bulk", "vmm.precopy.round",
		"vmm.flush", "vmm.downtime", "vmm.stopcopy", "vmm.commit",
		"vmm.enclave.channel", "vmm.enclave.commit", "vmm.restore", "vmm.enclave.restore",
		"core.prepare", "core.dump", "core.channel", "core.keyrelease",
		"core.restore", "core.target.prepare", "core.target.key", "core.target.finish",
	} {
		if len(tr.ByName(name)) == 0 {
			t.Errorf("trace is missing span %q", name)
		}
	}

	root := tr.ByName("vmm.livemigrate")[0]
	if root.Parent != 0 {
		t.Fatalf("vmm.livemigrate should be a root span, parent=%d", root.Parent)
	}
	if stats.TotalTime != root.Dur {
		t.Fatalf("TotalTime %v is not derived from the root span (%v)", stats.TotalTime, root.Dur)
	}

	dump := tr.ByName("vmm.dump")[0]
	if dump.Parent != root.ID {
		t.Fatalf("vmm.dump parent = %d, want root %d", dump.Parent, root.ID)
	}
	if dump.Track == root.Track {
		t.Fatal("pipelined vmm.dump should be forked onto its own track")
	}
	// The pipelining claim itself: the dump interval overlaps the memory
	// transfer (bulk round + pre-copy rounds) instead of preceding it.
	bulkStart, bulkEnd := interval(t, tr, "vmm.bulk")
	xferEnd := bulkEnd
	for _, r := range tr.ByName("vmm.precopy.round") {
		if end := r.Start + r.Dur; end > xferEnd {
			xferEnd = end
		}
	}
	if dump.Start >= xferEnd || dump.Start+dump.Dur <= bulkStart {
		t.Fatalf("vmm.dump [%v,%v] does not overlap the transfer [%v,%v]",
			dump.Start, dump.Start+dump.Dur, bulkStart, xferEnd)
	}

	down := tr.ByName("vmm.downtime")[0]
	if stats.Downtime < down.Dur {
		t.Fatalf("Downtime %v below the downtime span %v", stats.Downtime, down.Dur)
	}
	if !slices.ContainsFunc(down.Attrs, func(a telemetry.Attr) bool { return a.Key == "gc_cycles" }) {
		t.Fatalf("vmm.downtime carries no gc_cycles count: %v", down.Attrs)
	}

	// The guest is paused on an idle link: the flush sits on the root's own
	// track between the last round and the window, and by the time the
	// window opens every page of the bulk and pre-copy rounds is off the
	// link — only the final dirty set crosses it with the guest stopped.
	flush := tr.ByName("vmm.flush")[0]
	_, flushEnd := interval(t, tr, "vmm.flush")
	if flush.Parent != root.ID || flush.Track != root.Track {
		t.Fatalf("vmm.flush should be a child of the root on its track: parent=%d track=%d", flush.Parent, flush.Track)
	}
	if flush.Start < xferEnd || flushEnd > down.Start {
		t.Fatalf("vmm.flush [%v,%v] is not between the last round (ends %v) and the window (opens %v)",
			flush.Start, flushEnd, xferEnd, down.Start)
	}
	before, sent := 0, 0
	for _, f := range link {
		sent += f.pages
		if f.off <= down.Start {
			before += f.pages
		}
	}
	rounds := stats.RoundDirtyPages[:len(stats.RoundDirtyPages)-1]
	precopied := 0
	for _, n := range rounds {
		precopied += n
	}
	if before != precopied || sent != precopied+stats.RoundDirtyPages[len(rounds)] {
		t.Fatalf("%d pages were off the link when the window opened, %d in all; the rounds before it carry %d (%v)",
			before, sent, precopied, stats.RoundDirtyPages)
	}

	// Only the commit stays in the window: the legs fork from the root,
	// start when the dump lands and are over before stop-and-copy begins.
	scStart, _ := interval(t, tr, "vmm.stopcopy")
	legs := tr.ByName("vmm.enclave.channel")
	if len(legs) != 2 {
		t.Fatalf("want 2 vmm.enclave.channel spans, got %d", len(legs))
	}
	for _, leg := range legs {
		if leg.Parent != root.ID || leg.Track == root.Track {
			t.Fatalf("vmm.enclave.channel should fork from the root: parent=%d track=%d", leg.Parent, leg.Track)
		}
		if leg.Start < dump.Start+dump.Dur {
			t.Fatalf("channel leg starts at %v, before the dump has landed at %v", leg.Start, dump.Start+dump.Dur)
		}
		if end := leg.Start + leg.Dur; end > scStart {
			t.Fatalf("channel leg ends at %v, after stop-and-copy starts at %v", end, scStart)
		}
	}
	if n := len(tr.ByName("vmm.channelwait")); n != 0 || stats.ChannelWait != 0 {
		t.Fatalf("legs were hidden, yet %d vmm.channelwait spans and ChannelWait = %v", n, stats.ChannelWait)
	}
	checkRestoreAfterWindow(t, tr, stats)
}

// checkRestoreAfterWindow pins where the commit and the rebuild sit: key
// release (vmm.commit) inside the downtime window, the rebuild
// (vmm.restore) after it, on the root's track, its per-enclave spans one
// after the other, and each phase's stat read off its span.
func checkRestoreAfterWindow(t *testing.T, tr *telemetry.Tracer, stats *LiveMigrationStats) {
	t.Helper()
	downStart, downEnd := interval(t, tr, "vmm.downtime")
	commitStart, commitEnd := interval(t, tr, "vmm.commit")
	if commitStart < downStart || commitEnd > downEnd {
		t.Fatalf("vmm.commit [%v,%v] outside the window [%v,%v]", commitStart, commitEnd, downStart, downEnd)
	}
	if stats.KeyReleaseTime != commitEnd-commitStart {
		t.Fatalf("KeyReleaseTime %v is not derived from the vmm.commit span (%v)", stats.KeyReleaseTime, commitEnd-commitStart)
	}
	restoreStart, restoreEnd := interval(t, tr, "vmm.restore")
	if restoreStart < downEnd {
		t.Fatalf("vmm.restore starts at %v, inside the window that closes at %v", restoreStart, downEnd)
	}
	if stats.EnclaveRestoreTime != restoreEnd-restoreStart {
		t.Fatalf("EnclaveRestoreTime %v is not derived from the vmm.restore span (%v)", stats.EnclaveRestoreTime, restoreEnd-restoreStart)
	}
	root := tr.ByName("vmm.livemigrate")[0]
	if r := tr.ByName("vmm.restore")[0]; r.Parent != root.ID || r.Track != root.Track {
		t.Fatalf("vmm.restore should be a child of the root on its track: parent=%d track=%d", r.Parent, r.Track)
	}
	prevEnd := downEnd
	for _, r := range tr.ByName("vmm.enclave.restore") {
		if r.Start < prevEnd || r.Start+r.Dur > restoreEnd {
			t.Fatalf("vmm.enclave.restore [%v,%v] overlaps its predecessor (ends %v) or leaves vmm.restore (ends %v)",
				r.Start, r.Start+r.Dur, prevEnd, restoreEnd)
		}
		prevEnd = r.Start + r.Dur
	}
	if n := len(tr.ByName("vmm.enclave.restore")); n != stats.EnclaveCount || len(stats.EnclaveUnavailable) != n {
		t.Fatalf("%d vmm.enclave.restore spans and %d unavailability entries for %d enclaves",
			n, len(stats.EnclaveUnavailable), stats.EnclaveCount)
	}
}

// TestLiveMigrateTraceSerial pins the serial Fig. 8 schedule's trace: the
// dump is a same-track child that fully precedes the bulk transfer.
func TestLiveMigrateTraceSerial(t *testing.T) {
	tr, stats, _ := traceVM(t, true)

	root := tr.ByName("vmm.livemigrate")[0]
	dump := tr.ByName("vmm.dump")[0]
	if dump.Track != root.Track {
		t.Fatal("serial vmm.dump should share the root track (Child, not Fork)")
	}
	bulkStart, _ := interval(t, tr, "vmm.bulk")
	if dumpEnd := dump.Start + dump.Dur; dumpEnd > bulkStart {
		t.Fatalf("serial schedule: dump ends at %v, after bulk transfer starts at %v", dumpEnd, bulkStart)
	}

	// The paper's Fig. 8: the channel legs run inside the downtime window,
	// after stop-and-copy, one after the other, and the window accounts
	// for them as its channel wait.
	downStart, downEnd := interval(t, tr, "vmm.downtime")
	_, scEnd := interval(t, tr, "vmm.stopcopy")
	waitStart, waitEnd := interval(t, tr, "vmm.channelwait")
	if stats.ChannelWait != waitEnd-waitStart {
		t.Fatalf("ChannelWait %v is not derived from the vmm.channelwait span (%v)", stats.ChannelWait, waitEnd-waitStart)
	}
	prevEnd := scEnd
	for _, leg := range tr.ByName("vmm.enclave.channel") {
		end := leg.Start + leg.Dur
		if leg.Start < downStart || end > downEnd || leg.Start < waitStart || end > waitEnd {
			t.Fatalf("serial channel leg [%v,%v] outside the window [%v,%v] / its wait [%v,%v]",
				leg.Start, end, downStart, downEnd, waitStart, waitEnd)
		}
		if leg.Start < prevEnd {
			t.Fatalf("serial channel leg starts at %v, before its predecessor ended at %v", leg.Start, prevEnd)
		}
		prevEnd = end
	}
	// Key release stays inside the window and the rebuild follows it, as
	// on the pipelined schedule.
	checkRestoreAfterWindow(t, tr, stats)
}
