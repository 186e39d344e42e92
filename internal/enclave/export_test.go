package enclave

import (
	"testing"

	"repro/internal/sgx"
)

// SetDumpQuiescentHook makes f the hook a dump runs at its quiescent point
// (dumpQuiescent) until t ends.
func SetDumpQuiescentHook(t testing.TB, f func()) {
	dumpQuiescent = f
	t.Cleanup(func() { dumpQuiescent = nil })
}

// SetECallGateHook makes f the hook ECall runs between its entry gate and
// EENTER (ecallGatePassed) until t ends.
func SetECallGateHook(t testing.TB, f func()) {
	ecallGatePassed = f
	t.Cleanup(func() { ecallGatePassed = nil })
}

// OffDHSeed is the enclave address of the control page's DH seed.
const OffDHSeed = offDHSeed

// Workers returns the address of the first entry of rt's worker table and
// each worker's logical processor, so a test can check that neither is
// replaced once the runtime is built.
func Workers(rt *Runtime) (table any, lps []*sgx.LP) {
	for _, ws := range rt.workers {
		lps = append(lps, ws.lp)
	}
	return &rt.workers[0], lps
}
