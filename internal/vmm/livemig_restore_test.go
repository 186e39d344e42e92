package vmm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/testapps"
)

// restoreWorld is a source VM with n counter enclaves that carry state but
// run no workers, each at its own count, and the records of its migration.
type restoreWorld struct {
	vm   *VM
	dst  *Node
	want map[string]uint64 // each enclave's count when it left
	tr   *telemetry.Tracer
	j    *telemetry.Journal
	met  *telemetry.Metrics
}

func newRestoreWorld(t *testing.T, n int) *restoreWorld {
	t.Helper()
	_, owner, src, dst := newCloud(t)
	deployCounter(t, owner, src, dst)
	vm, err := src.CreateVM(VMConfig{Name: "vm-restore", MemPages: 4096, VCPUs: 4, EPCQuota: 4096})
	if err != nil {
		t.Fatal(err)
	}
	w := &restoreWorld{vm: vm, dst: dst, want: make(map[string]uint64),
		tr: telemetry.New(), j: telemetry.NewJournal(0), met: telemetry.NewMetrics()}
	for e := 0; e < n; e++ {
		p, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", e), "counter", owner, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.want[p.Name] = uint64(100 + e)
		if _, err := p.RT.ECall(0, testapps.CounterAdd, w.want[p.Name]); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func (w *restoreWorld) migrate(factory TransportFactory) (*VM, *LiveMigrationStats, error) {
	return LiveMigrate(w.vm, w.dst, &LiveMigrationConfig{
		BandwidthBps:     1e9,
		Tracer:           w.tr,
		TransportFactory: factory,
		Opts:             &core.Options{Service: w.vm.Node.Service, Journal: w.j, Metrics: w.met},
	})
}

// checkSettled checks that every enclave migration the source settled was
// counted once: committed ones as committed, the rest as aborted.
func (w *restoreWorld) checkSettled(t *testing.T, committed, aborted int64) {
	t.Helper()
	c := w.met.Counter("core.migrations.committed").Value()
	a := w.met.Counter("core.migrations.aborted").Value()
	if c != committed || a != aborted {
		t.Fatalf("core.migrations: %d committed, %d aborted; want %d, %d", c, a, committed, aborted)
	}
}

// checkSingleInstance checks every enclave that left: its source is dead,
// and it either answers its count on both workers on the target or, if it
// is among lost, has no process there.
func (w *restoreWorld) checkSingleInstance(t *testing.T, tvm *VM, lost ...string) {
	t.Helper()
	for _, p := range w.vm.OS.Processes() {
		if !p.RT.Dead() {
			t.Fatalf("source enclave %s still live after the migration", p.Name)
		}
	}
	tvm.OS.StopAll()
	got := make(map[string]bool)
	for _, p := range tvm.OS.Processes() {
		got[p.Name] = true
		for worker := 0; worker < 2; worker++ {
			res, err := p.RT.ECall(worker, testapps.CounterGet)
			if err != nil || res[0] != w.want[p.Name] {
				t.Fatalf("%s worker %d answers %v, %v on the target; want %d", p.Name, worker, res, err, w.want[p.Name])
			}
		}
	}
	for name := range w.want {
		if got[name] == slices.Contains(lost, name) {
			t.Fatalf("%s: target process %v, lost %v", name, got[name], lost)
		}
	}
}

// TestLiveMigrateRestoresAfterResume: the enclaves are rebuilt after the VM
// resumed — the window closes before the first restore starts, and the
// journal files the downtime before any restore finishes — and the
// migration still leaves exactly one live instance of each.
func TestLiveMigrateRestoresAfterResume(t *testing.T) {
	const enclaves = 4
	w := newRestoreWorld(t, enclaves)
	tvm, stats, err := w.migrate(nil)
	if err != nil {
		t.Fatal(err)
	}

	_, downEnd := interval(t, w.tr, "vmm.downtime")
	restores := w.tr.ByName("vmm.enclave.restore")
	if len(restores) != enclaves {
		t.Fatalf("%d vmm.enclave.restore spans, want %d", len(restores), enclaves)
	}
	for _, r := range restores {
		if r.Start < downEnd {
			t.Fatalf("vmm.enclave.restore starts at %v, before the window closed at %v", r.Start, downEnd)
		}
	}
	recs, _ := w.j.Since(0)
	var downSeq uint64
	finished := 0
	for _, r := range recs {
		switch r.Kind {
		case telemetry.EventDowntime:
			downSeq = r.Seq
		case telemetry.EventRestoreFinish:
			if downSeq == 0 {
				t.Fatalf("restore of %s finished (seq %d) before the downtime was filed", r.EnclaveID, r.Seq)
			}
			finished++
		case telemetry.EventAbort:
			t.Fatalf("abort filed for %s: %v", r.EnclaveID, r.Attrs)
		}
	}
	if downSeq == 0 || finished != enclaves {
		t.Fatalf("journal: downtime seq %d, %d restores finished; want %d", downSeq, finished, enclaves)
	}
	if len(stats.LostEnclaves) != 0 || len(stats.EnclaveUnavailable) != enclaves {
		t.Fatalf("lost %v, unavailability %v", stats.LostEnclaves, stats.EnclaveUnavailable)
	}
	for name, d := range stats.EnclaveUnavailable {
		if d < stats.KeyReleaseTime {
			t.Fatalf("%s unavailable for %v, less than the key release %v it sat through", name, d, stats.KeyReleaseTime)
		}
	}
	w.checkSingleInstance(t, tvm)
	w.checkSettled(t, enclaves, 0)
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// flipLastBit is an enclave control channel's target half that flips the
// last bit of the checkpoint it receives: the leg attests and the key is
// installed, and the in-enclave restore refuses the checkpoint.
type flipLastBit struct {
	core.Transport
	left uint32 // checkpoint frames still to come; the receiver's only
}

func (f *flipLastBit) Recv() (core.Message, error) {
	m, err := f.Transport.Recv()
	if err == nil && m.Kind == core.MsgCheckpoint {
		f.left = m.Frames
	}
	return m, err
}

func (f *flipLastBit) RecvFrame() (*core.PageFrame, error) {
	pf, err := f.Transport.RecvFrame()
	if err == nil && f.left > 0 {
		if f.left--; f.left == 0 {
			pf.Data[len(pf.Data)-1] ^= 1
		}
	}
	return pf, err
}

// TestLiveMigrateRestoreFailureLosesOneEnclave: a restore that fails after
// the VM resumed loses that enclave and only that one. Its source
// self-destroyed at the commit point and no target instance exists, so it
// is never forked; the VM runs on with the other fifteen live, and the loss
// is in the stats and in the journal.
func TestLiveMigrateRestoreFailureLosesOneEnclave(t *testing.T) {
	const enclaves, victim = 16, "enc-5"
	w := newRestoreWorld(t, enclaves)
	epcBase := usedFrames(w.dst.Machine)
	tvm, stats, err := w.migrate(func(name string, s, d core.Transport) (core.Transport, core.Transport) {
		if name == victim {
			return s, &flipLastBit{Transport: d}
		}
		return s, d
	})
	if !errors.Is(err, ErrEnclavesLost) || tvm == nil {
		t.Fatalf("LiveMigrate = %v, %v; want the target VM and ErrEnclavesLost", tvm, err)
	}
	if !slices.Equal(stats.LostEnclaves, []string{victim}) {
		t.Fatalf("LostEnclaves = %v, want [%s]", stats.LostEnclaves, victim)
	}
	if _, ok := stats.EnclaveUnavailable[victim]; ok || len(stats.EnclaveUnavailable) != enclaves-1 {
		t.Fatalf("unavailability %v: want every enclave but %s", stats.EnclaveUnavailable, victim)
	}
	if !w.vm.Dead() || tvm.Dead() {
		t.Fatalf("source VM dead %v, target VM dead %v", w.vm.Dead(), tvm.Dead())
	}
	recs, _ := w.j.Since(0)
	restoreAbort := false
	for _, r := range recs {
		switch {
		case r.Kind == telemetry.EventRestoreFinish && r.EnclaveID == victim:
			t.Fatalf("journal has a finished restore of the lost %s", victim)
		case r.Kind == telemetry.EventAbort && r.EnclaveID == victim:
			restoreAbort = restoreAbort || slices.Contains(r.Attrs, telemetry.String("phase", "restore"))
		case r.Kind == telemetry.EventAbort:
			t.Fatalf("abort filed for %s: %v", r.EnclaveID, r.Attrs)
		}
	}
	if !restoreAbort {
		t.Fatalf("journal files no restore abort for %s", victim)
	}
	w.checkSingleInstance(t, tvm, victim)
	w.checkSettled(t, enclaves-1, 1)
	// The lost enclave's EPC went back with its destroyed target: what the
	// target holds is the fifteen live enclaves, and the VM's shutdown
	// returns every frame.
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := usedFrames(w.dst.Machine); got != epcBase {
		t.Fatalf("target node holds %d EPC frames after shutdown, %d before the migration", got, epcBase)
	}
}

// badKey is an enclave control channel's target half that flips the last
// bit of the sealed key it receives: the source has self-destroyed and
// released Kmigrate, and the target refuses to install it.
type badKey struct{ core.Transport }

func (b badKey) Recv() (core.Message, error) {
	m, err := b.Transport.Recv()
	if err == nil && m.Kind == core.MsgKey {
		m.Blob = append([]byte(nil), m.Blob...)
		m.Blob[len(m.Blob)-1] ^= 1
	}
	return m, err
}

// TestLiveMigrateKeyInstallFailureSettlesCommitted: a key install that fails
// inside the window unwinds the VM migration. The enclaves whose key had
// already left, the victim among them, are lost; each source still hears
// its target's abort, so the journal files an abort for every key release
// and every migration is counted. The enclave behind the victim never
// released its key and resumes on the source.
func TestLiveMigrateKeyInstallFailureSettlesCommitted(t *testing.T) {
	const enclaves, victim = 4, "enc-2"
	w := newRestoreWorld(t, enclaves)
	tvm, _, err := w.migrate(func(name string, s, d core.Transport) (core.Transport, core.Transport) {
		if name == victim {
			return s, badKey{d}
		}
		return s, d
	})
	if err == nil || errors.Is(err, ErrEnclavesLost) || tvm != nil {
		t.Fatalf("LiveMigrate = %v, %v; want no target VM and the unwound migration's error", tvm, err)
	}
	lost := []string{"enc-0", "enc-1", victim}
	recs, _ := w.j.Since(0)
	released, aborted := map[string]bool{}, map[string]bool{}
	for _, r := range recs {
		switch {
		case r.Kind == telemetry.EventKeyRelease:
			released[r.EnclaveID] = true
		case r.Kind == telemetry.EventAbort && slices.Contains(r.Attrs, telemetry.String("phase", "release")):
			aborted[r.EnclaveID] = true
		}
	}
	for e := 0; e < enclaves; e++ {
		name := fmt.Sprintf("enc-%d", e)
		want := slices.Contains(lost, name)
		if released[name] != want || aborted[name] != want {
			t.Fatalf("%s: key release filed %v, release abort filed %v; want both %v", name, released[name], aborted[name], want)
		}
	}
	w.checkSettled(t, 0, int64(len(lost)))
	if w.vm.Dead() {
		t.Fatal("source VM marked dead after an unwound migration")
	}
	for _, p := range w.vm.OS.Processes() {
		if dead := p.RT.Dead(); dead != slices.Contains(lost, p.Name) {
			t.Fatalf("source enclave %s dead = %v", p.Name, dead)
		}
	}
	w.vm.OS.StopAll()
	p := w.vm.OS.Processes()[enclaves-1]
	if res, err := p.RT.ECall(0, testapps.CounterGet); err != nil || res[0] != w.want[p.Name] {
		t.Fatalf("%s answers %v, %v on the source; want %d", p.Name, res, err, w.want[p.Name])
	}
}
