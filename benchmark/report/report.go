// Package report is what the benchmark (package main in the parent
// directory) and benchmark/compare share: the catalogue of workloads and
// metrics that BENCHMARK.json mirrors, the result-file schema, and the
// order statistics both sides summarise samples with.
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Workload names one closed-loop workload and the reason it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before compare calls it a
// regression; per-layer metrics have none.
type Spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// Workloads are the four migration workloads, in run order.
var Workloads = []Workload{
	{"pingpong_small", "One counter enclave hops between two hostd daemons over loopback TCP: fixed protocol cost (dial, gob, attestation, DH, quiesce, rebuild) is everything; bulk crypto, paging, page codec are bypassed."},
	{"bigstate_epc", "An 8 MiB KV enclave migrates in-process between hosts with 1700 EPC frames for 2048 heap pages: checkpoint crypto and EWB/ELDU paging carry the time; handshake and network share is small."},
	{"vm_live", "Pre-copy of a 32 MiB VM, half random-filled, with a dirtying process and 16 enclaves over a 250 MB/s link: vmm pre-copy, wire codec and link carry the total; enclave count drives downtime."},
	{"fleet_drain", "fleet.Drain moves 24 enclaves off one of three loopback daemons at the default inflight of 2: the pingpong path run concurrently, exposing the source daemon's serial section and fleet queue cost."},
}

// EndToEnd are the metrics an operator of the system sees. Every one is
// defined (and non-zero) on every workload; see README.md for the
// per-workload meaning of downtime and wire bytes. The timing bounds are
// what a shared 2-vCPU host supports: its speed drifts by a quarter and
// more over minutes, and dividing by the run's speed divisor (speed.go)
// takes out most of that, not all. Byte counts repeat.
var EndToEnd = []Spec{
	{"migrate_ms_p50", "ms", "lower", 0.25},
	{"migrate_ms_p90", "ms", "lower", 0.25},
	{"enclaves_per_s", "1/s", "higher", 0.25},
	{"downtime_ms_p50", "ms", "lower", 0.25},
	{"wire_mib_per_migration", "MiB", "lower", 0.02},
	{"alloc_mib_per_migration", "MiB", "lower", 0.05},
	{"cpu_ms_per_migration", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer are the single-layer metrics of the traced run: probes (tight
// loops around one public call), report-derived phase times of the traced
// operations, and span self times. A layer the workload never crosses
// reports 0.
var PerLayer = []Spec{
	// tcb
	{"tcb.seal_4k_ns", "ns", "lower", 0},
	{"tcb.open_4k_ns", "ns", "lower", 0},
	{"tcb.seal_4k_allocs", "count", "lower", 0},
	{"tcb.ckpt_encrypt_mib_s", "MiB/s", "higher", 0},
	{"tcb.ckpt_decrypt_mib_s", "MiB/s", "higher", 0},
	{"tcb.dh_us", "us", "lower", 0},
	{"tcb.sign_verify_us", "us", "lower", 0},
	// sgx
	{"sgx.ewb_ns", "ns", "lower", 0},
	{"sgx.eldu_ns", "ns", "lower", 0},
	// epcman
	{"epcman.faultin_us", "us", "lower", 0},
	{"epcman.evictions_per_migration", "count", "lower", 0},
	{"epcman.reloads_per_migration", "count", "lower", 0},
	// enclave
	{"enclave.build_ms.counter", "ms", "lower", 0},
	{"enclave.build_ms.kv8m", "ms", "lower", 0},
	{"enclave.ecall_ns", "ns", "lower", 0},
	// core
	{"core.prepare_us", "us", "lower", 0},
	{"core.dump_ms.counter", "ms", "lower", 0},
	{"core.dump_ms.kv8m", "ms", "lower", 0},
	{"core.channel_us", "us", "lower", 0},
	{"core.restore_ms.counter", "ms", "lower", 0},
	{"core.restore_ms.kv8m", "ms", "lower", 0},
	{"core.verify_us", "us", "lower", 0},
	{"core.wirecodec.encode_mib_s.random", "MiB/s", "higher", 0},
	{"core.wirecodec.encode_mib_s.zero", "MiB/s", "higher", 0},
	{"core.wirecodec.encode_mib_s.sparse", "MiB/s", "higher", 0},
	{"core.wirecodec.decode_mib_s", "MiB/s", "higher", 0},
	{"core.wirecodec.sparse_ratio", "ratio", "lower", 0},
	{"core.transport.tcp_frame_mib_s", "MiB/s", "higher", 0},
	{"core.transport.tcp_msg_rtt_us", "us", "lower", 0},
	{"core.transport.pipe_msg_rtt_us", "us", "lower", 0},
	// vmm
	{"vmm.dump_ms", "ms", "lower", 0},
	{"vmm.dump_overlap_ms", "ms", "higher", 0},
	{"vmm.restore_ms", "ms", "lower", 0},
	{"vmm.precopy_rounds", "count", "lower", 0},
	{"vmm.bulk_wire_mib", "MiB", "lower", 0},
	{"vmm.precopy_wire_mib", "MiB", "lower", 0},
	{"vmm.stopcopy_wire_mib", "MiB", "lower", 0},
	{"vmm.raw_frames", "count", "lower", 0},
	{"vmm.delta_frames", "count", "lower", 0},
	{"vmm.prepare_all_ms", "ms", "lower", 0},
	{"vmm.copy_pages_mib_s", "MiB/s", "higher", 0},
	// hostd
	{"hostd.launch_ms", "ms", "lower", 0},
	{"hostd.call_us", "us", "lower", 0},
	{"hostd.stats_us", "us", "lower", 0},
	// fleet
	{"fleet.poll_us", "us", "lower", 0},
	{"fleet.drain_passes", "count", "lower", 0},
	{"fleet.drain_inflight1_ms", "ms", "lower", 0},
	{"fleet.drain_parallel_speedup", "ratio", "higher", 0},
	// telemetry
	{"telemetry.journal_append_ns", "ns", "lower", 0},
	{"telemetry.span_ns", "ns", "lower", 0},
	{"telemetry.span_nil_ns", "ns", "lower", 0},
	{"telemetry.trace_overhead_pct", "%", "lower", 0},
	// runtime
	{"runtime.allocs_per_migration", "count", "lower", 0},
	{"runtime.cpu_ms_per_migration", "ms", "lower", 0},
	{"runtime.gc_pause_ms_per_migration", "ms", "lower", 0},
	{"runtime.peak_rss_mib", "MiB", "lower", 0},
	// benchmark-owned spans: self time per operation by layer, and how
	// much of each root span its children account for
	{"trace.self_ms.bench", "ms", "lower", 0},
	{"trace.self_ms.hostd", "ms", "lower", 0},
	{"trace.self_ms.core", "ms", "lower", 0},
	{"trace.self_ms.vmm", "ms", "lower", 0},
	{"trace.self_ms.fleet", "ms", "lower", 0},
	{"trace.child_coverage_pct", "%", "higher", 0},
	// the host's speed during the run (speed.go); the per-layer times are
	// as measured, not divided by it
	{"bench.speed_factor", "ratio", "lower", 0},
}

// Metric is one reported value. N is the number of samples behind it
// (operations, probe iterations or set-ups).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Run is the outcome of measuring one workload once.
type Run struct {
	Workload  string  `json:"workload"`
	Round     int     `json:"round"`
	Traced    bool    `json:"traced"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Speed is how many times slower than the reference host this one ran
	// the benchmark's reference kernel during the run. Divisor is what a
	// timed run's timing metrics were divided by on account of it (multiply
	// to get the measured times back); a traced run's are as measured.
	Speed   float64           `json:"speed_factor"`
	Divisor float64           `json:"time_divisor,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
}

// File is the result file a full run writes and compare reads.
type File struct {
	Seed       uint64  `json:"seed"`
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Rounds     int     `json:"rounds"`
	Seconds    float64 `json:"round_seconds"`
	EndToEnd   []Spec  `json:"end_to_end"`
	Runs       []Run   `json:"runs"`
}

// ReadFile loads a result file.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Values returns the untraced per-round values of one end-to-end metric on
// one workload, in round order.
func (f *File) Values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// Quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty slice. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Spread is the full range of xs as a share of its median: the
// round-to-round disagreement compare weighs a bound against. With the
// three rounds of a default run a quartile distance would hide the
// slowest round, so the range is used.
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := Median(xs)
	if med == 0 {
		return 0
	}
	return (Quantile(xs, 1) - Quantile(xs, 0)) / math.Abs(med)
}
