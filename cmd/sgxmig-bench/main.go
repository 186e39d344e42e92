// sgxmig-bench regenerates every table and figure of the paper's evaluation
// (Sec. VIII) and prints the measured series next to the paper's reported
// values. Absolute numbers differ (the substrate is a simulator, not the
// authors' Skylake testbed); the *shape* — who wins, by what factor, where
// the knees are — is the reproduction target. See EXPERIMENTS.md.
//
// Usage:
//
//	sgxmig-bench                     # run everything (takes a few minutes)
//	sgxmig-bench -fig 9a             # one experiment: 9a 9b 9c 9d 10 11 a1 a2 a3 a4
//	sgxmig-bench -quick              # smaller sweeps
//	sgxmig-bench -trace out.json     # also write a Chrome trace (see docs/TELEMETRY.md)
//	sgxmig-bench -prom out.prom      # also write the run's metrics as Prometheus text
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/tcb"
	"repro/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run: 9a 9b 9c 9d 10 11 a1 a2 a3 a4 all")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in chrome://tracing or ui.perfetto.dev)")
	promPath := flag.String("prom", "", "write the run's metrics registry as Prometheus text exposition to this file")
	flag.Parse()

	if *tracePath != "" || *promPath != "" {
		tr := telemetry.New()
		met := telemetry.NewMetrics()
		bench.SetTracer(tr, met)
		defer func() {
			if *tracePath != "" {
				f, err := os.Create(*tracePath)
				if err != nil {
					log.Fatalf("trace: %v", err)
				}
				if err := tr.WriteChromeTrace(f); err != nil {
					log.Fatalf("trace: %v", err)
				}
				if err := f.Close(); err != nil {
					log.Fatalf("trace: %v", err)
				}
				fmt.Printf("\nwrote %d spans to %s\n", len(tr.Completed()), *tracePath)
			}
			if *promPath != "" {
				f, err := os.Create(*promPath)
				if err != nil {
					log.Fatalf("prom: %v", err)
				}
				if err := met.WriteProm(f); err != nil {
					log.Fatalf("prom: %v", err)
				}
				if err := f.Close(); err != nil {
					log.Fatalf("prom: %v", err)
				}
				fmt.Printf("wrote metrics exposition to %s\n", *promPath)
			}
		}()
	}

	runs := map[string]func(bool) error{
		"9a": fig9a, "9b": fig9b, "9c": fig9c, "9d": fig9d,
		"10": fig10, "11": fig11,
		"a1": ablation1, "a2": ablation2, "a3": ablation3, "a4": ablation4,
	}
	order := []string{"9a", "9b", "9c", "9d", "10", "11", "a1", "a2", "a3", "a4"}

	which := strings.ToLower(*fig)
	if which == "all" {
		for _, name := range order {
			if err := runs[name](*quick); err != nil {
				log.Fatalf("experiment %s: %v", name, err)
			}
		}
		return
	}
	run, ok := runs[which]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s all)\n", which, strings.Join(order, " "))
		os.Exit(2)
	}
	if err := run(*quick); err != nil {
		log.Fatal(err)
	}
}

func header(title, paper string) {
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Printf("paper: %s\n", paper)
	fmt.Printf("measured:\n")
}

func fig9a(quick bool) error {
	header("Fig. 9(a) — nbench overhead (native vs SDKs)",
		"overhead small for compute-bound kernels; String Sort ~5-12x once the working set exceeds EPC")
	rows, err := bench.Fig9a()
	if err != nil {
		return err
	}
	fmt.Printf("  %-18s %12s %14s %18s %10s\n", "kernel", "native", "our-SDK(norm)", "intel-style(norm)", "evictions")
	for _, r := range rows {
		fmt.Printf("  %-18s %12v %13.2fx %17.2fx %10d\n",
			r.Kernel, r.NativeTime.Round(time.Microsecond), r.SDKNorm, r.IntelNorm, r.Evictions)
	}
	return nil
}

func fig9b(quick bool) error {
	header("Fig. 9(b) — migration-support overhead per application",
		"\"migration support brings almost no overhead\" (ratio ≈ 1.0)")
	rows, err := bench.Fig9b()
	if err != nil {
		return err
	}
	fmt.Printf("  %-10s %14s %14s %8s\n", "app", "with-stubs", "without", "ratio")
	for _, r := range rows {
		fmt.Printf("  %-10s %14v %14v %7.3f\n",
			r.App, r.WithStubs.Round(time.Microsecond), r.WithoutStubs.Round(time.Microsecond), r.Norm)
	}
	return nil
}

func fig9c(quick bool) error {
	header("Fig. 9(c) — two-phase checkpoint time vs enclave count",
		"~255µs flat for 1-4 enclaves, 263µs at 8 (VCPU saturation knee); RC4 ~200µs vs DES ~300µs for 20KB")
	counts := []int{1, 2, 4, 8}
	if quick {
		counts = []int{1, 4}
	}
	rows, err := bench.Fig9c(counts, tcb.CipherRC4)
	if err != nil {
		return err
	}
	fmt.Printf("  %-10s %22s\n", "enclaves", "mean checkpoint (rc4)")
	for _, r := range rows {
		fmt.Printf("  %-10d %22v\n", r.Enclaves, r.MeanPerEnc.Round(time.Microsecond))
	}
	fmt.Printf("  cipher comparison (1 enclave):\n")
	for _, c := range []tcb.CheckpointCipher{tcb.CipherRC4, tcb.CipherDES, tcb.CipherAESGCM} {
		rows, err := bench.Fig9c([]int{1}, c)
		if err != nil {
			return err
		}
		fmt.Printf("    %-8s %v\n", c, rows[0].MeanPerEnc.Round(time.Microsecond))
	}
	return nil
}

func fig9d(quick bool) error {
	header("Fig. 9(d) — total dumping time (guest fan-out) vs enclave count",
		"≤940µs up to 8 enclaves, ~1700µs at 16, ~7000µs at 64 (scheduling pressure grows)")
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	if quick {
		counts = []int{1, 4, 16}
	}
	rows, err := bench.Fig9d(counts)
	if err != nil {
		return err
	}
	fmt.Printf("  %-10s %16s\n", "enclaves", "total dump")
	for _, r := range rows {
		fmt.Printf("  %-10d %16v\n", r.Enclaves, r.TotalDump.Round(time.Microsecond))
	}
	return nil
}

func fig10(quick bool) error {
	header("Fig. 10(a-d) — live VM migration with vs without enclaves",
		"(a) restore grows linearly (serial rebuild); (b) total +2% at ≤32, +5% at 64; (c) downtime +~3ms at 64; (d) slightly more data with enclaves")
	// down: VM downtime, the pause Fig. 10(c) plots. unavail: the longest
	// any enclave served no call, quiesce to verified restore — the rebuild
	// runs after the VM resumed, so it counts here and not in down.
	counts := []int{8, 16, 32, 64}
	if quick {
		counts = []int{4, 8}
	}
	rows, err := bench.Fig10(counts)
	if err != nil {
		return err
	}
	fmt.Printf("  %-9s | %12s %12s | %12s %12s | %12s | %9s %9s | %12s\n",
		"enclaves", "total w/", "total w/o", "down w/", "down w/o", "unavail w/", "MB w/", "MB w/o", "restore(a)")
	for _, r := range rows {
		fmt.Printf("  %-9d | %12v %12v | %12v %12v | %12v | %9.1f %9.1f | %12v\n",
			r.Enclaves,
			r.With.TotalTime.Round(time.Millisecond), r.Without.TotalTime.Round(time.Millisecond),
			r.With.Downtime.Round(time.Microsecond), r.Without.Downtime.Round(time.Microsecond),
			r.With.MaxEnclaveUnavailable().Round(time.Microsecond),
			float64(r.With.TransferredBytes)/(1<<20), float64(r.Without.TransferredBytes)/(1<<20),
			r.With.EnclaveRestoreTime.Round(time.Microsecond))
	}
	return nil
}

func fig11(quick bool) error {
	header("Fig. 11 — two-phase checkpoint time vs memcached state size",
		"grows linearly with state: ~tens of ms at a few MB up to ~190ms at 32MB (AES-NI)")
	sizes := []int{1, 2, 4, 8, 16, 32}
	if quick {
		sizes = []int{1, 4, 8}
	}
	rows, err := bench.Fig11(sizes)
	if err != nil {
		return err
	}
	fmt.Printf("  %-10s %16s %12s\n", "state MiB", "checkpoint", "blob MiB")
	for _, r := range rows {
		fmt.Printf("  %-10d %16v %12d\n", r.StateBytes>>20, r.Checkpoint.Round(time.Millisecond), r.BlobBytes>>20)
	}
	return nil
}

func ablation1(quick bool) error {
	header("Ablation A1 — naive checkpointing vs two-phase (Fig. 3 attack)",
		"naive checkpoints violate the balance invariant; two-phase never does")
	attempts := 8
	if quick {
		attempts = 3
	}
	row, err := bench.AblationNaiveVsTwoPhase(attempts)
	if err != nil {
		return err
	}
	fmt.Printf("  attempts: %d\n", row.Attempts)
	fmt.Printf("  naive:     %d/%d invariant violations (mean dump %v)\n", row.NaiveViolations, row.Attempts, row.NaiveDumpTime.Round(time.Microsecond))
	fmt.Printf("  two-phase: %d/%d invariant violations (mean prepare+dump %v)\n", row.TwoPhaseViolations, row.Attempts, row.TwoPhaseTime.Round(time.Microsecond))
	return nil
}

func ablation2(quick bool) error {
	header("Ablation A2 — agent enclave hides attestation RTT (Sec. VI-D)",
		"without agent the migration window pays the IAS round trips; with agent it does not")
	rtts := []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond}
	if quick {
		rtts = []time.Duration{0, 20 * time.Millisecond}
	}
	rows, err := bench.AblationAgent(rtts)
	if err != nil {
		return err
	}
	fmt.Printf("  %-10s %18s %18s\n", "IAS RTT", "without agent", "with agent")
	for _, r := range rows {
		fmt.Printf("  %-10v %18v %18v\n", r.RTT,
			r.WithoutAgent.Round(time.Millisecond), r.WithAgent.Round(time.Millisecond))
	}
	return nil
}

func ablation3(quick bool) error {
	header("Ablation A3 — software mechanism vs proposed hardware extension (Sec. VII-B)",
		"the proposal removes the in-enclave cooperation; expected faster, especially for small enclaves")
	pages := []int{16, 64, 256, 1024}
	if quick {
		pages = []int{16, 256}
	}
	rows, err := bench.AblationHardwareExtension(pages)
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %14s %14s %8s\n", "heap pages", "software", "hardware", "speedup")
	for _, r := range rows {
		fmt.Printf("  %-12d %14v %14v %7.1fx\n", r.HeapPages,
			r.SoftwareTime.Round(time.Microsecond), r.HardwareTime.Round(time.Microsecond),
			float64(r.SoftwareTime)/float64(r.HardwareTime))
	}
	return nil
}

func ablation4(quick bool) error {
	header("Ablation A4 — pipelined pre-copy engine vs the paper's serial schedule",
		"overlapping the enclave dump and the per-enclave channel legs with pre-copy rounds hides them; only stop-and-copy and the serial key release stay in the window")
	enclaves := 16
	if quick {
		enclaves = 8
	}
	row, err := bench.AblationPipeline(enclaves)
	if err != nil {
		return err
	}
	// Resident: what the bulk round carried — the pages of extents somebody
	// wrote. The rest of the guest is zero on both sides and never sent.
	fmt.Printf("  %d enclaves, %d of %d guest pages resident; medians of %d runs per schedule\n", row.Enclaves, row.Resident, row.GuestPages, bench.PipelineRuns)
	// channel wait: what the window spent on channel legs — all of them on
	// the serial schedule, the tail pre-copy could not hide on the pipelined.
	// key release is the serial commit inside the window, restore the
	// serial rebuild after it; max unavail the longest any enclave served no
	// call (quiesce to verified restore), beside the VM downtime.
	fmt.Printf("  %-10s %12s %12s %12s %12s %14s %14s %12s %12s\n", "schedule", "total", "downtime", "max unavail",
		"dump", "overlap hidden", "channel wait", "key release", "restore")
	for _, s := range []struct {
		name string
		bench.ScheduleStats
	}{{"serial", row.Serial}, {"pipelined", row.Pipelined}} {
		fmt.Printf("  %-10s %12v %12v %12v %12v %14v %14v %12v %12v\n", s.name,
			s.Total.Round(time.Millisecond), s.Downtime.Round(time.Microsecond), s.Unavailable.Round(time.Microsecond),
			s.Dump.Round(time.Microsecond), s.Overlap.Round(time.Microsecond),
			s.ChannelWait.Round(time.Microsecond), s.KeyRelease.Round(time.Microsecond), s.Restore.Round(time.Microsecond))
	}
	fmt.Printf("  speedup: total %.2fx, downtime %.2fx\n",
		float64(row.Serial.Total)/float64(row.Pipelined.Total),
		float64(row.Serial.Downtime)/float64(row.Pipelined.Downtime))
	return nil
}
