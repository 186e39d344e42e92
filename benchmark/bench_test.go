package main

import (
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/benchmark/report"
)

// manifest is the shape of BENCHMARK.json the test cares about.
type manifest struct {
	Command   []string          `json:"command"`
	Paths     []string          `json:"paths"`
	Workloads []report.Workload `json:"workloads"`
	EndToEnd  []report.Spec     `json:"end_to_end"`
	PerLayer  []report.Spec     `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json and benchmark/report
// saying the same thing: a metric or workload named in one and not the
// other would be promised to the driver and never printed, or printed and
// never gated.
func TestManifestMatchesCatalogue(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Workloads, report.Workloads) {
		t.Errorf("workloads differ:\n BENCHMARK.json %v\n report         %v", m.Workloads, report.Workloads)
	}
	if !reflect.DeepEqual(m.EndToEnd, report.EndToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %v\n report         %v", m.EndToEnd, report.EndToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, report.PerLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %v\n report         %v", m.PerLayer, report.PerLayer)
	}
	for _, w := range m.Workloads {
		if worlds[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

// TestSmoke runs every workload for 0.3 s timed and 0.6 s traced (half of
// it with tracing on), and the probes at 5 ms a loop, and applies the same
// gate the command does: no failed operation, every metric BENCHMARK.json names
// present, finite and carrying its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real migrations for several seconds")
	}
	log.SetOutput(io.Discard) // hostd logs every launch and migration
	defer log.SetOutput(os.Stderr)
	m := readManifest(t)
	probed, err := runProbes(rand.New(rand.NewSource(1)), 5*time.Millisecond)
	if err != nil {
		t.Fatalf("probes: %v", err)
	}
	for _, w := range m.Workloads {
		timed, err := measureTimed(w.Name, 1, 0.3)
		if err != nil {
			t.Fatalf("%s timed: %v", w.Name, err)
		}
		if err := check(timed, m.EndToEnd); err != nil {
			t.Error(err)
		}
		for _, spec := range m.EndToEnd {
			if timed.Metrics[spec.Name].Value <= 0 {
				t.Errorf("%s %s = %v, want > 0", w.Name, spec.Name, timed.Metrics[spec.Name].Value)
			}
		}
		traced, tr, err := measureTraced(w.Name, 1, 0.6, probed)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if err := check(traced, m.PerLayer); err != nil {
			t.Error(err)
		}
		if roots := tr.summary().roots; roots == 0 {
			t.Errorf("%s: traced run recorded no root span", w.Name)
		}
		ev := traced.Metrics["epcman.evictions_per_migration"].Value
		if pressured := w.Name == "bigstate_epc"; pressured != (ev > 0) {
			t.Errorf("%s: %v evictions per migration; only bigstate_epc runs under EPC pressure", w.Name, ev)
		}
		if cov := traced.Metrics["trace.child_coverage_pct"].Value; (w.Name == "bigstate_epc" || w.Name == "vm_live") && cov < 90 {
			t.Errorf("%s: children cover %.1f%% of the least-covered root span, want >= 90%%", w.Name, cov)
		}
	}
}
