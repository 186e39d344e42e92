package enclave

import "testing"

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
