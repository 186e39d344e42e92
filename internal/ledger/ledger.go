// Package ledger counts what the migration path takes and must give back:
// pooled wire buffers, checkpoint buffers, swap batches, frame-window
// frames, prepared sources and targets, runtimes left quiesced and open
// spans. Each count is process-wide and always on, one atomic add per
// acquire and per release, so a leak on a failure path shows as a count
// that does not come back down.
//
// Check is the one place the counts are read: a test world calls it when
// it is built, and when the test ends it fails the test with every count
// that did not settle back to where it stood, next to the world's own
// holdings (live enclaves, EPC frames) that exceed what the world should
// hold. Tests run one at a time (none calls t.Parallel), so a count that
// moved belongs to the test that moved it.
package ledger

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Count is one resource kind's process-wide count of what is held.
type Count struct {
	name string
	n    atomic.Int64
}

// counts is every Count, registered by New during package initialisation.
var counts []*Count

// New returns the count for a resource kind. Call it only from a
// package-level variable declaration.
func New(name string) *Count {
	c := &Count{name: name}
	counts = append(counts, c)
	return c
}

// Add records d acquisitions (d > 0) or releases (d < 0).
func (c *Count) Add(d int64) { c.n.Add(d) }

// Load returns how many are held now.
func (c *Count) Load() int64 { return c.n.Load() }

// Take sets held, a resource's held flag, and counts the resource if the
// flag was clear. Give clears it and counts the resource back if it was
// set, so a release that several paths may make counts once.
func (c *Count) Take(held *atomic.Bool) {
	if !held.Swap(true) {
		c.Add(1)
	}
}

// Give is Take's release: see Take.
func (c *Count) Give(held *atomic.Bool) {
	if held.Swap(false) {
		c.Add(-1)
	}
}

// Holding is something a test world holds that Check compares against what
// it should hold: Excess returns how many more it holds than that (0 when
// it holds exactly that; a negative value is not a leak).
type Holding struct {
	Kind   string
	Excess func() int
}

// TB is the part of testing.TB Check uses.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// settle bounds how long Check waits at teardown: a migration that failed
// may still be unwinding on goroutines the test does not wait for (a
// target's abort after its link closed, a span ended by a deferred call).
const settle = 5 * time.Second

// Check records every count now and, when t ends (after its deferred calls
// and the cleanups registered after this one), waits up to settle for each
// to come back to what it was and for each holding's excess to reach 0.
// What does not fails t, named with its count.
func Check(t TB, holdings ...Holding) {
	t.Helper()
	base := make([]int64, len(counts))
	for i, c := range counts {
		base[i] = c.Load()
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(settle)
		for {
			var leaks []string
			for i, c := range counts {
				if n := c.Load() - base[i]; n > 0 {
					leaks = append(leaks, fmt.Sprintf("%s %+d", c.name, n))
				}
			}
			for _, h := range holdings {
				if n := h.Excess(); n > 0 {
					leaks = append(leaks, fmt.Sprintf("%s %+d", h.Kind, n))
				}
			}
			if len(leaks) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("held at teardown: %s", strings.Join(leaks, ", "))
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
