package enclave_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sim"
	"repro/internal/testapps"
)

// TestWorkerTableFixedAfterBuild: every ecall and interrupt reaches a worker
// through the runtime's worker table and the worker's logical processor
// without a lock, which is sound only while nothing replaces either once
// BuildSigned has made them. A target built for a migration with a call
// counting on worker 0 keeps both through the CSSA rebuild that replays the
// call's exits and the restore, an ecall, InterruptWorkers and Destroy.
func TestWorkerTableFixedAfterBuild(t *testing.T) {
	w := sim.NewTestWorld(t, sim.Config{Machines: 2})
	src, err := w.Launch(w.Deploy(testapps.CounterApp(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	counting := make(chan error, 1)
	go func() {
		_, err := src.ECall(0, testapps.CounterRun, 1<<40)
		counting <- err
	}()
	if err := testapps.AwaitCount(src); err != nil {
		t.Fatal(err)
	}

	t1, t2 := w.Pipe()
	out := make(chan error, 1)
	go func() {
		_, err := core.MigrateOut(src, t1, w.Opts())
		out <- err
	}()
	pt, err := core.MigrateInPrepare(w.Hosts[1], w.Registry, t2, w.Opts())
	if err != nil {
		t.Fatal(err)
	}
	rt := w.Own(pt.Runtime())
	table, lps := enclave.Workers(rt)
	check := func(step string) {
		t.Helper()
		gotTable, gotLPs := enclave.Workers(rt)
		if gotTable != table {
			t.Fatalf("after %s: the worker table was replaced", step)
		}
		if !slices.Equal(gotLPs, lps) {
			t.Fatalf("after %s: a worker's logical processor was replaced", step)
		}
	}

	inc, err := pt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	check("the CSSA rebuild and the restore")
	if err := <-out; err != nil {
		t.Fatalf("MigrateOut: %v", err)
	}
	<-counting // the source's caller lost its self-destroyed enclave
	if _, err := rt.ECall(1, testapps.CounterGet); err != nil {
		t.Fatal(err)
	}
	check("an ecall")
	rt.InterruptWorkers()
	check("InterruptWorkers")
	if err := rt.Destroy(); err != nil {
		t.Fatal(err)
	}
	check("Destroy")
	for range inc.Results {
	}
}
