package vmm

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testapps"
)

// TestLiveMigrateEnclaveFaultUnwinds (regression for the receive-goroutine
// leak): a transport fault in one enclave's control channel must unwind the
// whole VM migration — the source VM keeps running with every enclave
// resumed, the half-built target VM is torn down, and no goroutine stays
// parked on the dead channel. failAt indexes the source half's transport
// operations (1 = first image send, 3 = the checkpoint's bulk frame, 5 =
// the channel message after the hello receive) — all before key release,
// so the migration is still fully cancellable.
func TestLiveMigrateEnclaveFaultUnwinds(t *testing.T) {
	for _, failAt := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			maxGoroutines := runtime.NumGoroutine() + 4

			_, owner, src, dst := newCloud(t)
			deployCounter(t, owner, src, dst)
			vm, err := src.CreateVM(VMConfig{Name: "vm-fault", MemPages: 1024, VCPUs: 4, EPCQuota: 2048})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := vm.OS.LaunchEnclaveProcess(fmt.Sprintf("enc-%d", i), "counter", owner, counterWorkload); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(2 * time.Millisecond)

			cfg := &LiveMigrationConfig{
				BandwidthBps: 1e9,
				TransportFactory: func(name string, s, d core.Transport) (core.Transport, core.Transport) {
					if name == "enc-0" {
						return core.NewFaultyTransport(s, failAt, true), d
					}
					return s, d
				},
			}
			tvm, stats, err := LiveMigrate(vm, dst, cfg)
			if err == nil {
				t.Fatal("migration succeeded despite injected fault")
			}
			if tvm != nil || stats != nil {
				t.Fatal("failed migration returned a target VM")
			}

			// The source VM is intact: still registered, not dead, and every
			// enclave resumed — their counters answer and keep counting.
			if vm.Dead() {
				t.Fatal("source VM marked dead after failed migration")
			}
			vm.OS.StopAll()
			for _, p := range vm.OS.Processes() {
				res, err := p.RT.ECall(0, testapps.CounterGet)
				if err != nil {
					t.Fatalf("%s after failed migration: %v", p.Name, err)
				}
				if res[0] == 0 {
					t.Fatalf("%s: no progress before the failed migration", p.Name)
				}
			}

			// The half-built target VM was removed from the node: its name
			// and EPC grant are free again.
			probe, err := dst.CreateVM(vm.Config)
			if err != nil {
				t.Fatalf("target VM not released after failed migration: %v", err)
			}
			if err := probe.Shutdown(); err != nil {
				t.Fatal(err)
			}

			// A second migration attempt from the same source succeeds.
			for _, p := range vm.OS.Processes() {
				p.start()
			}
			// As before the first attempt: every worker entering its enclave
			// for the first time at the instant the dump starts is the worst
			// case of the dump-vs-entering-worker race (benchmark/README.md),
			// which is not what this test is about.
			time.Sleep(2 * time.Millisecond)
			tvm2, _, err := LiveMigrate(vm, dst, &LiveMigrationConfig{BandwidthBps: 1e9})
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

			// Nothing is left parked on the dead control channels.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > maxGoroutines {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
						runtime.NumGoroutine(), maxGoroutines, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
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
