// Live migration of a whole VM with enclaves inside (the paper's headline
// scenario): a guest VM runs ordinary processes plus N enclaves; the
// hypervisor live-migrates it with iterative pre-copy, the guest OS drives
// two-phase checkpointing for every enclave (Fig. 8), and the enclaves
// resume on the target with their states intact.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/telemetry"
	"repro/internal/testapps"
	"repro/internal/vmm"
)

func main() {
	enclaves := flag.Int("enclaves", 4, "number of enclaves in the VM")
	memMB := flag.Int("mem", 16, "guest memory in MiB")
	bandwidthMBps := flag.Float64("bw", 1000, "migration link bandwidth (MB/s)")
	serial := flag.Bool("serial", false, "use the paper's serial Fig. 8 schedule instead of the pipelined engine")
	tracePath := flag.String("trace", "", "write a Chrome trace of the migration to this file (open in ui.perfetto.dev)")
	flag.Parse()
	if err := run(*enclaves, *memMB, *bandwidthMBps, *serial, *tracePath); err != nil {
		log.Fatal(err)
	}
}

func counterWorkload(rt *enclave.Runtime, worker int, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		_, err := rt.ECall(worker, testapps.CounterRun, 2000)
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

func run(enclaves, memMB int, bwMBps float64, serial bool, tracePath string) error {
	service, err := attest.NewService()
	if err != nil {
		return err
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		return err
	}
	nodeA, err := vmm.NewNode(vmm.NodeConfig{Name: "node-a", EPCFrames: 16384}, service)
	if err != nil {
		return err
	}
	nodeB, err := vmm.NewNode(vmm.NodeConfig{Name: "node-b", EPCFrames: 16384}, service)
	if err != nil {
		return err
	}
	app := testapps.CounterApp(2)
	owner.ConfigureApp(app)
	dep := core.NewDeployment(app, owner)
	nodeA.Registry.Add(dep)
	nodeB.Registry.Add(dep)

	vm, err := nodeA.CreateVM(vmm.VMConfig{
		Name:     "tenant-vm",
		MemPages: memMB * 256, // 256 pages per MiB
		VCPUs:    4,
		EPCQuota: 4096,
	})
	if err != nil {
		return err
	}
	// The tenant's data: incompressible pages over the upper half of guest
	// memory. Only pages somebody wrote are migrated; without them there
	// would be next to nothing for the link to carry.
	data := make([]byte, vm.Mem.Bytes()/2)
	rand.New(rand.NewSource(1)).Read(data)
	if err := vm.Mem.Write(uint64(len(data)), data); err != nil {
		return err
	}
	if _, err := vm.OS.LaunchPlainProcess("webserver", 256, 100*time.Microsecond); err != nil {
		return err
	}
	for i := 0; i < enclaves; i++ {
		name := fmt.Sprintf("enclave-%d", i)
		if _, err := vm.OS.LaunchEnclaveProcess(name, "counter", owner, counterWorkload); err != nil {
			return err
		}
	}
	fmt.Printf("VM %q on %s: %d MiB memory, 1 plain process, %d enclaves\n",
		vm.Name, nodeA.Name, memMB, enclaves)
	time.Sleep(10 * time.Millisecond) // let the workloads build state

	var tr *telemetry.Tracer
	var met *telemetry.Metrics
	if tracePath != "" {
		tr = telemetry.New()
		met = telemetry.NewMetrics()
	}
	tvm, stats, err := vmm.LiveMigrate(vm, nodeB, &vmm.LiveMigrationConfig{
		BandwidthBps:  bwMBps * 1e6,
		PaperSchedule: serial,
		Tracer:        tr,
		Metrics:       met,
	})
	if err != nil {
		return err
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d spans to %s; metrics snapshot:\n", len(tr.Completed()), tracePath)
		if err := met.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	schedule := "pipelined"
	if serial {
		schedule = "serial (paper's Fig. 8)"
	}
	fmt.Printf("\nlive migration %s -> %s completed (%s schedule):\n", nodeA.Name, nodeB.Name, schedule)
	fmt.Printf("  total time:            %v\n", stats.TotalTime)
	fmt.Printf("  downtime:              %v (VM pause incl. serial key release %v and unhidden enclave checkpointing)\n",
		stats.Downtime, stats.KeyReleaseTime)
	fmt.Printf("  pre-copy rounds:       %d (dirty pages per round: %v)\n", stats.PreCopyRounds, stats.RoundDirtyPages)
	fmt.Printf("  transferred:           %.1f MiB (bulk %.1f + pre-copy %.1f + stop-copy %.1f + enclave ctl %.1f)\n",
		float64(stats.TransferredBytes)/(1<<20),
		float64(stats.BulkBytes)/(1<<20), float64(stats.PreCopyBytes)/(1<<20),
		float64(stats.StopCopyBytes)/(1<<20), float64(stats.EnclaveCtlBytes)/(1<<20))
	fmt.Printf("  enclave dump (all %d):  %v (%v hidden behind pre-copy)\n",
		stats.EnclaveCount, stats.EnclaveDumpTime, stats.DumpPrecopyOverlap)
	fmt.Printf("  enclave restore (all): %v (serial, after the VM resumed)\n", stats.EnclaveRestoreTime)
	fmt.Printf("  enclave unavailable:   %v at most (quiesce to verified restore)\n", stats.MaxEnclaveUnavailable())

	time.Sleep(5 * time.Millisecond) // target workloads making progress
	tvm.OS.StopAll()
	fmt.Println("\nmigrated enclaves on the target:")
	for _, p := range tvm.OS.Processes() {
		res, err := p.RT.ECall(0, testapps.CounterGet)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Printf("  %-12s counter = %-8d (state moved and kept growing)\n", p.Name, res[0])
		if res[0] == 0 {
			return errors.New("an enclave lost its state")
		}
	}
	return tvm.Shutdown()
}
