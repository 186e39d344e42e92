package testapps_test

import (
	"sync"
	"testing"

	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/testapps"
)

// TestCounterExactUnderConcurrentWorkers: workers counting at once each
// write only their own word of the count, so no step is lost to another
// worker's load-add-store, and the count they leave is exactly the steps
// they ran plus what was added. The one shared word it replaced lost steps
// whenever two workers interleaved inside one increment.
func TestCounterExactUnderConcurrentWorkers(t *testing.T) {
	m, err := sgx.NewMachine(sgx.Config{Name: "counter-test", Quantum: 7})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := tcb.NewSigningIdentity()
	if err != nil {
		t.Fatal(err)
	}
	const workers, steps, base = 3, 3000, 1000
	rt, err := enclave.Build(enclave.NewBareHost(m), testapps.CounterApp(workers), signer)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rt.Destroy() }()
	if _, err := rt.ECall(0, testapps.CounterAdd, base); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.ECall(w, testapps.CounterRun, steps); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		res, err := rt.ECall(w, testapps.CounterGet)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(base + workers*steps); res[0] != want {
			t.Fatalf("worker %d reads %d, want exactly %d", w, res[0], want)
		}
	}
}
