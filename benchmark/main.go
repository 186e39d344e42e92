// Command benchmark is the repository's performance spine: four
// closed-loop migration workloads measured end to end with tracing off,
// and a traced run that attributes the time to layers. README.md has the
// tables; BENCHMARK.json at the repository root mirrors the catalogue in
// benchmark/report. The directory is a module of its own, built and run by
// run.sh.
//
// One workload, the way the benchmark driver calls it from the root:
//
//	bash benchmark/run.sh --workload vm_live --seed 3 --seconds 30 --trace 0
//
// prints a table and, as the last line of standard output, one JSON
// object {correct, attempted, failed, metrics}. Without --workload every
// workload runs for --rounds interleaved rounds and then once traced, and
// --out names a directory for result.json (what benchmark/compare reads)
// and the trace files.
//
// The product is driven from outside only, with zero-value configuration,
// by timing calls into its public functions and reading the reports they
// return.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/benchmark/report"
)

// worlds maps a workload to the function that builds one world and drives
// it until r.stop().
var worlds = map[string]func(*run) error{
	"pingpong_small": pingpongWorld,
	"bigstate_epc":   bigstateWorld,
	"vm_live":        vmliveWorld,
	"fleet_drain":    drainWorldOnce,
}

// measureTimed runs workload with tracing off for seconds.
func measureTimed(workload string, seed uint64, seconds float64) (report.Run, error) {
	r := newRun(workload, seed, seconds, nil)
	for {
		r.worldOps = 0
		if err := worlds[workload](r); err != nil {
			return report.Run{}, err
		}
		if r.expired() {
			break
		}
	}
	out := report.Run{Workload: workload, Seed: seed, Seconds: seconds, Attempted: r.ops, Failed: r.failed, Speed: r.speed.factor(), Divisor: r.speed.divisor()}
	var err error
	out.Metrics, err = r.endToEnd()
	return out, err
}

// measureTraced spends half of seconds driving workload in worlds that
// alternate between tracing on and off, and the rest on the layer probes.
// The probes do not depend on the workload: a caller that already has
// their results passes them in.
func measureTraced(workload string, seed uint64, seconds float64, probed map[string]report.Metric) (report.Run, *tracer, error) {
	tr := newTracer()
	r := newRun(workload, seed, seconds/2, tr)
	pause0 := gcPauseTotal()
	for {
		r.worldOps = 0
		r.traced = !r.traced
		if err := worlds[workload](r); err != nil {
			return report.Run{}, nil, err
		}
		if r.expired() && !r.traced {
			break
		}
	}
	pause := gcPauseTotal() - pause0
	if probed == nil {
		var err error
		if probed, err = runProbes(r.rng, probeBudget(seconds)); err != nil {
			return report.Run{}, nil, err
		}
	}
	out := report.Run{Workload: workload, Traced: true, Seed: seed, Seconds: seconds, Attempted: r.ops, Failed: r.failed, Speed: r.speed.factor()}
	var err error
	out.Metrics, err = r.perLayer(probed, pause)
	return out, tr, err
}

// probeBudget is how long one probe's tight loop runs: with some forty
// loops and their fixed set-up the probes take about half of seconds.
func probeBudget(seconds float64) time.Duration {
	return time.Duration(seconds / 100 * float64(time.Second))
}

// perLayer assembles the traced run's metrics: the probes, what the
// traced operations read out of product reports, the runtime's accounting
// of them, and the span self times. Every name in report.PerLayer is
// present; a layer the workload never crossed reads 0.
func (r *run) perLayer(probed map[string]report.Metric, gcPauseNs uint64) (map[string]report.Metric, error) {
	s := &r.withTr
	n := len(s.opMs)
	if n == 0 || len(r.plain.opMs) == 0 {
		return nil, fmt.Errorf("%s: no traced operation completed", r.workload)
	}
	ops := float64(n)
	out := make(map[string]report.Metric, len(report.PerLayer))
	for _, spec := range report.PerLayer {
		out[spec.Name] = report.Metric{Unit: spec.Unit}
	}
	set := func(name string, v float64, n int) {
		m, ok := out[name]
		if !ok {
			panic("benchmark: metric " + name + " is not in report.PerLayer")
		}
		m.Value, m.N = v, n
		out[name] = m
	}
	for name, m := range probed {
		set(name, m.Value, m.N)
	}
	for name, sum := range s.layer {
		set(name, sum/ops, n)
	}
	set("telemetry.trace_overhead_pct", (report.Median(s.opMs)/report.Median(r.plain.opMs)-1)*100, n)
	set("runtime.allocs_per_migration", float64(s.allocN)/ops, n)
	set("runtime.cpu_ms_per_migration", ms(s.cpu)/ops, n)
	set("runtime.gc_pause_ms_per_migration", float64(gcPauseNs)/1e6/float64(n+len(r.plain.opMs)), n+len(r.plain.opMs))
	set("runtime.peak_rss_mib", peakRSSMiB(), 1)
	set("bench.speed_factor", r.speed.factor(), len(r.speed.samples))
	sum := r.tr.summary()
	for _, layer := range []string{"bench", "hostd", "core", "vmm", "fleet"} {
		set("trace.self_ms."+layer, sum.selfMs[layer]/float64(max(sum.roots, 1)), sum.roots)
	}
	set("trace.child_coverage_pct", report.Quantile(sum.coverage, 0)*100, len(sum.coverage))
	return out, nil
}

// printRun writes one run as a table: every metric by name with its value,
// unit and sample count.
func printRun(w io.Writer, run report.Run, specs []report.Spec) {
	mode := "timed"
	if run.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  %s  seed=%d  %.3gs  attempted=%d failed=%d  speed factor=%.4f", run.Workload, mode, run.Seed, run.Seconds, run.Attempted, run.Failed, run.Speed)
	if run.Divisor != 0 {
		fmt.Fprintf(w, "  times divided by %.4f", run.Divisor)
	}
	fmt.Fprintln(w)
	for _, spec := range specs {
		m := run.Metrics[spec.Name]
		fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d\n", spec.Name, m.Value, m.Unit, m.N)
	}
}

// check is the gate a run must pass before its numbers are believed: no
// failed operation, every metric present, finite and carrying its unit.
func check(run report.Run, specs []report.Spec) error {
	var bad []string
	if run.Failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d operations failed", run.Failed, run.Attempted))
	}
	for _, spec := range specs {
		m, ok := run.Metrics[spec.Name]
		switch {
		case !ok:
			bad = append(bad, spec.Name+" missing")
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad = append(bad, spec.Name+" not finite")
		case m.Unit != spec.Unit:
			bad = append(bad, fmt.Sprintf("%s has unit %q, want %q", spec.Name, m.Unit, spec.Unit))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: %s", run.Workload, strings.Join(bad, "; "))
	}
	return nil
}

// driverLine is the last line of standard output the benchmark driver
// parses.
func driverLine(run report.Run, correct bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(run.Metrics))
	for name, m := range run.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, run.Attempted, run.Failed, metrics})
	return string(b), err // a non-finite value does not marshal
}

// gitSHA names the commit measured, with "-dirty" when the tree differs
// from it.
func gitSHA() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// single is the driver's entry: one workload, one mode.
func single(workload string, seed uint64, seconds float64, traced bool, outDir string) error {
	var run report.Run
	var tr *tracer
	var err error
	specs := report.EndToEnd
	if traced {
		specs = report.PerLayer
		run, tr, err = measureTraced(workload, seed, seconds, nil)
	} else {
		run, err = measureTimed(workload, seed, seconds)
	}
	if err != nil {
		return err
	}
	printRun(os.Stdout, run, specs)
	if tr != nil && outDir != "" {
		if err := tr.write(filepath.Join(outDir, "trace.json"), workload); err != nil {
			return err
		}
	}
	gate := check(run, specs)
	line, err := driverLine(run, gate == nil)
	if err != nil {
		return errors.Join(gate, err)
	}
	fmt.Println(line)
	return gate
}

// full runs every workload for rounds interleaved timed rounds, so a slow
// minute on a shared host does not land on one workload, then once traced.
func full(seed uint64, seconds float64, rounds int, outDir string) error {
	file := report.File{
		Seed: seed, GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Rounds: rounds, Seconds: seconds, EndToEnd: report.EndToEnd,
	}
	var gate []error
	for round := 0; round < rounds; round++ {
		for _, w := range report.Workloads {
			run, err := measureTimed(w.Name, seed, seconds)
			if err != nil {
				return err
			}
			run.Round = round
			printRun(os.Stdout, run, report.EndToEnd)
			gate = append(gate, check(run, report.EndToEnd))
			file.Runs = append(file.Runs, run)
		}
	}
	probed, err := runProbes(rand.New(rand.NewSource(int64(seed))), probeBudget(seconds))
	if err != nil {
		return err
	}
	for _, w := range report.Workloads {
		run, tr, err := measureTraced(w.Name, seed, seconds, probed)
		if err != nil {
			return err
		}
		printRun(os.Stdout, run, report.PerLayer)
		gate = append(gate, check(run, report.PerLayer))
		file.Runs = append(file.Runs, run)
		if outDir != "" {
			if err := tr.write(filepath.Join(outDir, "trace."+w.Name+".json"), w.Name); err != nil {
				return err
			}
		}
	}
	if outDir != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return errors.Join(gate...)
}

func main() {
	names := make([]string, 0, len(worlds))
	for name := range worlds {
		names = append(names, name)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+" (default: all, interleaved)")
	seed := flag.Uint64("seed", 1, "seed for every generated input: counter values, KV keys, VM fill bytes, checked pages")
	seconds := flag.Float64("seconds", 30, "wall time one run of one workload measures")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed run printing the end-to-end metrics, 1 = traced run printing the per-layer metrics")
	rounds := flag.Int("rounds", 3, "without -workload: timed rounds per workload")
	outDir := flag.String("out", "", "directory to write result.json and trace files to (default: write nothing)")
	flag.Parse()

	// hostd logs every launch and migration through the standard logger.
	log.SetOutput(io.Discard)

	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds <= 0 || *rounds <= 0 || (*trace != 0 && *trace != 1):
		err = errors.New("-seconds and -rounds must be positive and -trace 0 or 1")
	case *workload == "":
		err = full(*seed, *seconds, *rounds, *outDir)
	case worlds[*workload] == nil:
		err = fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
	default:
		err = single(*workload, *seed, *seconds, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
