package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/benchmark/report"
)

// samples are the measurements of the operations run in one mode (traced
// or not) of one run.
type samples struct {
	opMs     []float64 // timed wall time per operation
	linkMs   []float64 // the part of it spent waiting on a shaped link
	downMs   []float64 // service gap per operation (see README)
	wireB    []float64 // bytes on the wire per operation
	setupS   []float64 // world-building time, one per world
	enclaves int       // enclave instances moved by successful operations
	allocB   uint64    // heap bytes allocated inside timed regions
	allocN   uint64    // heap objects allocated inside timed regions
	cpu      time.Duration
	// layer sums what the operations read out of product reports; divide by
	// len(opMs) for a per-operation mean.
	layer layerSums
}

// layerSums are sums of values read out of product reports
// (LiveMigrationStats, epcman.Manager.Stats, fleet.Report), keyed by
// per-layer metric name.
type layerSums map[string]float64

func (l *layerSums) add(name string, v float64) {
	if *l == nil {
		*l = layerSums{}
	}
	(*l)[name] += v
}

// run is one measurement of one workload: the closed loop's clock, its
// seeded input generator, the samples and the failures.
type run struct {
	workload string
	seed     uint64
	rng      *rand.Rand
	deadline time.Time
	speed    *speedometer // the host's speed, sampled between operations

	// tr is nil in the timed run. In the traced run the loop alternates
	// between worlds with tracing on (benchmark spans plus the product's
	// own tracer) and off, so the overhead is measured inside one process.
	tr     *tracer
	traced bool // mode of the world being driven now
	plain  samples
	withTr samples

	ops      int // operations attempted, both modes
	worldOps int // operations attempted in the world being driven now
	failed   int
}

func newRun(workload string, seed uint64, seconds float64, tr *tracer) *run {
	// The workload's index keeps two workloads at one seed on different
	// input streams.
	var salt int64
	for i, w := range report.Workloads {
		if w.Name == workload {
			salt = int64(i)
		}
	}
	return &run{
		workload: workload,
		seed:     seed,
		rng:      rand.New(rand.NewSource(int64(seed)<<8 | salt)),
		deadline: time.Now().Add(time.Duration(seconds * float64(time.Second))),
		speed:    newSpeedometer(),
		tr:       tr,
	}
}

func (r *run) expired() bool { return time.Now().After(r.deadline) }

// stop tells a world to wind down: time is up and the world has run at
// least one operation, so even the shortest run samples every mode.
func (r *run) stop() bool { return r.worldOps > 0 && r.expired() }

func (r *run) cur() *samples {
	if r.traced {
		return &r.withTr
	}
	return &r.plain
}

// fail counts a failed operation (an error or a failed state check) and
// prints it with everything needed to replay it.
func (r *run) fail(op int, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL workload=%s op=%d seed=%d: %v\n", r.workload, op, r.seed, err)
}

// setup times one world-building step.
func (r *run) setup(build func() error) error {
	start := time.Now()
	if err := build(); err != nil {
		return fmt.Errorf("%s: set-up: %w", r.workload, err)
	}
	s := r.cur()
	s.setupS = append(s.setupS, time.Since(start).Seconds())
	return nil
}

// op is one operation in flight: the workload fills in what it observed.
type op struct {
	id      int
	started time.Time
	span    spanRef       // parent for the spans of whatever phase is running
	wire    int64         // bytes it put on the wire
	link    time.Duration // how long a shaped link took to carry them: a timer, not work
	down    time.Duration // service gap, when it differs from the timed wall time
	layer   layerSums     // what it read out of product reports
}

// addPaging books a daemon world's EPC paging against the operations the
// world ran.
func (r *run) addPaging(d *daemons) {
	if !r.traced {
		return
	}
	ev, rl := d.paging()
	r.cur().layer.add("epcman.evictions_per_migration", ev)
	r.cur().layer.add("epcman.reloads_per_migration", rl)
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func heapAllocs() (bytes, objects uint64) {
	var s [2]metrics.Sample
	copy(s[:], allocSamples)
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// rusage is the process's resource accounting; zero if the kernel refuses.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return syscall.Rusage{}
	}
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// do runs one operation: timed is the migration itself, check the state
// checks that follow it untimed. Both run under one root span. An error
// from either makes the operation a failure; only successful operations
// contribute samples. do reports whether the operation succeeded.
func (r *run) do(enclaves int, timed, check func(o *op) error) bool {
	r.ops++
	r.worldOps++
	o := &op{id: r.ops}
	root := r.activeTracer().begin("bench."+r.workload+".op", o.id)
	o.span = root
	b0, n0 := heapAllocs()
	c0 := cpuTime()
	o.started = time.Now()
	err := timed(o)
	wall := time.Since(o.started)
	c1 := cpuTime()
	b1, n1 := heapAllocs()
	if err == nil {
		o.span = root.child("bench.check")
		err = check(o)
		o.span.end()
	}
	root.end()
	r.speed.sample()
	if err != nil {
		r.fail(o.id, err)
		return false
	}
	s := r.cur()
	s.opMs = append(s.opMs, ms(wall))
	s.linkMs = append(s.linkMs, ms(min(o.link, wall)))
	if o.down == 0 {
		o.down = wall
	}
	s.downMs = append(s.downMs, ms(o.down))
	s.wireB = append(s.wireB, float64(o.wire))
	s.enclaves += enclaves
	s.allocB += b1 - b0
	s.allocN += n1 - n0
	s.cpu += c1 - c0
	for k, v := range o.layer {
		s.layer.add(k, v)
	}
	return true
}

// activeTracer is the benchmark tracer while a traced world is driven.
func (r *run) activeTracer() *tracer {
	if r.traced {
		return r.tr
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

const mib = 1 << 20

// endToEnd turns the timed run's samples into the end-to-end metrics. Every
// time among them is divided by the run's speed divisor (speed.go), except
// the part of an operation a shaped link's timer accounts for, which does
// not follow the host's speed; counts of bytes are as measured.
func (r *run) endToEnd() (map[string]report.Metric, error) {
	s := &r.plain
	n := len(s.opMs)
	if n == 0 || len(s.setupS) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", r.workload)
	}
	ops := float64(n)
	d := r.speed.divisor()
	opMs := make([]float64, n)
	var timedMs float64
	for i, wall := range s.opMs {
		opMs[i] = s.linkMs[i] + (wall-s.linkMs[i])/d
		timedMs += opMs[i]
	}
	return map[string]report.Metric{
		"migrate_ms_p50":          {Value: report.Median(opMs), Unit: "ms", N: n},
		"migrate_ms_p90":          {Value: report.Quantile(opMs, 0.9), Unit: "ms", N: n},
		"enclaves_per_s":          {Value: float64(s.enclaves) / (timedMs / 1e3), Unit: "1/s", N: n},
		"downtime_ms_p50":         {Value: report.Median(s.downMs) / d, Unit: "ms", N: n},
		"wire_mib_per_migration":  {Value: report.Median(s.wireB) / mib, Unit: "MiB", N: n},
		"alloc_mib_per_migration": {Value: float64(s.allocB) / mib / ops, Unit: "MiB", N: n},
		"cpu_ms_per_migration":    {Value: ms(s.cpu) / ops / d, Unit: "ms", N: n},
		"setup_s":                 {Value: report.Median(s.setupS) / d, Unit: "s", N: len(s.setupS)},
	}, nil
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

func gcPauseTotal() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.PauseTotalNs
}
