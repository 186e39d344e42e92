package core

import (
	"errors"
	"flag"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/enclave"
	"repro/internal/testapps"
)

// longRunHops is how many migrations TestLongRunMigrationsUnderHammering
// makes. The default keeps it inside an ordinary package run; the nightly
// job runs the full 2000 under the race detector:
//
//	go test -race ./internal/core -run TestLongRun -longrun.hops 2000
var longRunHops = flag.Int("longrun.hops", 40, "migrations TestLongRunMigrationsUnderHammering makes")

// Steps of the long run's two kinds of call: worker 0 counts in batches,
// worker 1 makes an ocall, whose return re-enters the enclave past the entry
// gate, and then counts one step.
const (
	longRunBatch = 300
	longRunOCall = 3 // CounterApp's three selectors come first
)

// longRunApp is the counter with an ecall that makes an ocall and then
// counts one step. A call still out in its ocall when its enclave migrates
// ends with ErrDestroyed having counted nothing: its continuation crossed
// in the checkpoint, but no thread on the target returns into it.
func longRunApp() *enclave.App {
	app := testapps.CounterApp(2)
	app.OCall = func(_ *enclave.Runtime, _, arg, _ uint64) (uint64, error) { return arg + 1, nil }
	app.ECalls = append(app.ECalls, func(c *enclave.Call) enclave.AppStatus {
		if c.PC == 0 {
			c.PC, c.OCallID = 1, 7
			return enclave.AppOCall
		}
		if c.Regs[1] != 0 {
			return enclave.AppAbort
		}
		word := c.HeapBase() + 8*uint64(c.Tid()-1)
		v, err := c.Load64(word)
		if err != nil {
			return enclave.AppAbort
		}
		if err := c.Store64(word, v+1); err != nil {
			return enclave.AppAbort
		}
		return enclave.AppDone
	})
	return app
}

// TestLongRunMigrationsUnderHammering migrates one enclave back and forth
// between two hosts, longRunHops times, while host loops call into it
// without pause: worker 0 counting, worker 1 making ocalls and counting.
// Nothing waits for the loops to settle, before the first migration or
// between two. Every hop must commit, or be refused cleanly by the dump's
// quiescence re-check (a worker that re-entered on an ocall's return after
// the quiescent point) with the source resuming, in which case the hop is
// tried again; the refusals are counted and logged. Any other error fails
// the test. At the end the count is exactly the steps of every call that
// completed, on whichever host it completed.
func TestLongRunMigrationsUnderHammering(t *testing.T) {
	w := newWorld(t)
	app := longRunApp()
	rt := w.launch(t, app)
	_, reg := w.deploy(app)
	opts := w.opts()

	var (
		cur      atomic.Pointer[enclave.Runtime]
		stop     atomic.Bool
		steps    atomic.Uint64 // steps of the calls that completed
		loops    sync.WaitGroup
		results  sync.WaitGroup
		failMu   sync.Mutex
		failures []error
	)
	fail := func(err error) {
		failMu.Lock()
		failures = append(failures, err)
		failMu.Unlock()
	}
	failed := func() bool {
		failMu.Lock()
		defer failMu.Unlock()
		return len(failures) > 0
	}
	cur.Store(rt)
	stepsOf := func(worker int) uint64 {
		if worker == 0 {
			return longRunBatch
		}
		return 1
	}
	for worker := 0; worker < 2; worker++ {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for !stop.Load() {
				var err error
				if worker == 0 {
					_, err = cur.Load().ECall(0, testapps.CounterRun, longRunBatch)
				} else {
					_, err = cur.Load().ECall(1, longRunOCall)
				}
				switch {
				case err == nil:
					steps.Add(stepsOf(worker))
				case errors.Is(err, enclave.ErrMigrating), errors.Is(err, enclave.ErrWorkerBusy), errors.Is(err, enclave.ErrDestroyed):
					// Refused at the gate, held by a resumed call, or
					// migrated away: the call goes on where it landed.
					runtime.Gosched()
				default:
					fail(err)
					return
				}
			}
		}()
	}

	hosts := [2]*enclave.Host{w.hostA, w.hostB}
	refused := 0
	for hop := 0; hop < *longRunHops && !failed(); {
		src := cur.Load()
		t1, t2 := testPipe(t)
		var (
			inc   *Incoming
			inErr error
			in    sync.WaitGroup
		)
		in.Add(1)
		go func() {
			defer in.Done()
			inc, inErr = MigrateIn(hosts[(hop+1)%2], reg, t2, opts)
		}()
		_, outErr := MigrateOut(src, t1, opts)
		if outErr != nil {
			_ = t1.Close()
		}
		in.Wait()
		if outErr != nil && strings.Contains(outErr.Error(), "workers not quiescent") && !src.Dead() {
			// The dump's re-check refused: the source resumed and the
			// target tore its enclave down.
			refused++
			continue
		}
		if outErr != nil || inErr != nil {
			t.Fatalf("hop %d: out %v, in %v", hop, outErr, inErr)
		}
		results.Add(1)
		go func() {
			defer results.Done()
			for r := range inc.Results {
				switch {
				case r.Err == nil:
					steps.Add(stepsOf(r.Worker))
				case errors.Is(r.Err, enclave.ErrDestroyed):
					// Migrated again before it finished.
				default:
					fail(r.Err)
				}
			}
		}()
		cur.Store(inc.Runtime)
		if err := src.Destroy(); err != nil {
			t.Fatal(err)
		}
		hop++
	}
	stop.Store(true)
	loops.Wait()
	results.Wait()
	t.Logf("%d migrations, %d refused by the dump's quiescence re-check (%.2f%% of attempts)",
		*longRunHops, refused, 100*float64(refused)/float64(*longRunHops+refused))
	for _, err := range failures {
		t.Error(err)
	}
	final := cur.Load()
	defer func() { _ = final.Destroy() }()
	res, err := final.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if want := steps.Load(); res[0] != want {
		t.Fatalf("the enclave counts %d after %d migrations; the completed calls ran %d steps", res[0], *longRunHops, want)
	}
}
