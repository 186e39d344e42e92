//go:build race

package vmm

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so bounds on pooled-buffer reuse cannot be asserted.
const raceEnabled = true
