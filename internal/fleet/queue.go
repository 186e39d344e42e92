package fleet

import (
	"strings"
	"sync"
	"time"

	"repro/internal/hostproto"
	"repro/internal/telemetry"
)

// Migration is one scheduled move: enclave ID from one host's control
// address to another's.
type Migration struct {
	ID   string
	From string
	To   string
}

// Outcome classifies how a scheduled migration ended. The protocol's
// commit point (the source self-destroys before releasing the sealing
// key, accepting instance loss over forking) means a failure does not
// simply mean "still on the source" — the queue reconciles against both
// hosts to find where the instance actually is.
type Outcome int

const (
	// Moved: the migration succeeded (possibly after retries); the
	// instance runs on the target.
	Moved Outcome = iota
	// MovedAfterError: the migrate-out request failed, but reconciliation
	// found the instance live on the target — the fault hit after the
	// restore (e.g. while shipping the final acknowledgment), so the
	// "failed" attempt actually moved it.
	MovedAfterError
	// Lost: the fault hit inside the protocol's accepted loss window —
	// after the source's destroy-before-release commit point but before
	// the target could restore. The instance exists nowhere; per the
	// paper this is the deliberate trade against forking.
	Lost
	// Failed: attempts exhausted or a permanent error; the instance is
	// still live on the source.
	Failed
)

// String names the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case Moved:
		return "moved"
	case MovedAfterError:
		return "moved-after-error"
	case Lost:
		return "lost"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Result reports one migration's fate.
type Result struct {
	Migration
	Outcome  Outcome
	Attempts int
	// NewID is the instance's name on the target when known (inbound
	// migrations register as "<origID>@<n>"). Empty for clean Moved
	// results: the queue learns target-side names only when it has to
	// reconcile.
	NewID string
	// Err is the last error when the outcome is not Moved.
	Err error
	// TraceID is the distributed trace this migration ran under when the
	// fleet has a tracer (zero otherwise). The source host's key-release
	// journal record carries the same id — KeyReleaseAudit joins the two.
	TraceID telemetry.TraceID
}

// Execute runs every migration in plan concurrently, each bounded by the
// per-host in-flight caps on both its source and target, retrying
// transient failures with exponential backoff. It returns one Result per
// plan entry, in plan order.
func Execute(f *Fleet, plan []Migration) []Result {
	results := make([]Result, len(plan))
	f.queueDepth.Set(int64(len(plan)))
	var wg sync.WaitGroup
	for i, m := range plan {
		wg.Add(1)
		go func(i int, m Migration) {
			defer wg.Done()
			defer f.queueDepth.Add(-1)
			results[i] = f.runOne(m)
		}(i, m)
	}
	wg.Wait()
	return results
}

// acquire takes the source and target semaphores in address order, the
// classic deadlock-free protocol for grabbing two resources: every
// migration touching hosts {A, B} locks A first, so two opposing
// migrations can never hold one semaphore each while waiting for the
// other.
func (f *Fleet) acquire(m Migration) (release func()) {
	first, second := f.hosts[m.From], f.hosts[m.To]
	if second.addr < first.addr {
		first, second = second, first
	}
	first.sem <- struct{}{}
	if second != first {
		second.sem <- struct{}{}
	}
	fg := f.inflightGauge(m.From)
	tg := f.inflightGauge(m.To)
	fg.Add(1)
	tg.Add(1)
	return func() {
		fg.Add(-1)
		tg.Add(-1)
		if second != first {
			<-second.sem
		}
		<-first.sem
	}
}

func (f *Fleet) inflightGauge(addr string) *telemetry.Gauge {
	if f.cfg.Metrics == nil {
		return nil
	}
	return f.cfg.Metrics.Gauge("fleet.inflight." + addr)
}

// runOne drives one migration to a terminal outcome: attempt, classify,
// reconcile, back off, repeat within the attempt budget. With a tracer
// configured, the whole lifecycle (attempts, reconciliation polls) runs
// under one root span whose TraceID is recorded in the Result — the same
// id the source host stamps on its journal records for this migration.
func (f *Fleet) runOne(m Migration) (res Result) {
	res = Result{Migration: m}
	sp := f.cfg.Tracer.Begin("fleet.migrate",
		telemetry.String("enclave", m.ID), telemetry.String("from", m.From), telemetry.String("to", m.To))
	res.TraceID = sp.Context().TraceID
	defer func() {
		sp.Annotate(telemetry.String("outcome", res.Outcome.String()), telemetry.Int("attempts", res.Attempts))
		sp.Fail(res.Err)
	}()
	release := f.acquire(m)
	defer release()
	for res.Attempts < f.cfg.attempts() {
		res.Attempts++
		_, err := f.request(sp, m.From, hostproto.Command{
			Op: hostproto.OpMigrateOut, ID: m.ID, Target: m.To,
		})
		if err == nil {
			res.Outcome = Moved
			res.Err = nil
			return res
		}
		res.Err = err
		if !transientErr(err) {
			res.Outcome = Failed
			return res
		}
		// A transient failure mid-migration leaves three possibilities;
		// ask the hosts which one happened before deciding to retry.
		switch loc, newID := f.locate(m); loc {
		case onSource:
			if res.Attempts < f.cfg.attempts() {
				f.retries.Inc()
				time.Sleep(f.backoff(res.Attempts))
			}
		case onTarget:
			res.Outcome = MovedAfterError
			res.NewID = newID
			return res
		case nowhere:
			res.Outcome = Lost
			return res
		}
	}
	res.Outcome = Failed
	return res
}

type location int

const (
	onSource location = iota
	onTarget
	nowhere
)

// locate asks the source and target where m.ID ended up after a failed
// attempt. Inbound migrations register under "<origID>@<n>", so the
// target match is by prefix. If the source cannot be reached the queue
// assumes the instance is still there (the conservative answer: it
// retries rather than declaring loss on stale evidence).
//
// After a successful OpMigrateOut no re-poll is needed: the target
// registers the session before it sends the trailer the source reads
// before answering. The re-poll is for the failures that land after the
// target committed: the source's Recv of the final acknowledgment failed
// (a torn or faulted connection, the migrateIdle clock), or the client's
// own request timed out, while the target goes on to register the session
// an instant after that acknowledgment. Its InflightIn counter stays up
// until that registration lands, so "absent and InflightIn > 0" means
// "still completing, ask again", and only "absent and idle" is Lost.
func (f *Fleet) locate(m Migration) (location, string) {
	src, serr := f.request(nil, m.From, hostproto.Command{Op: hostproto.OpStats})
	if serr == nil {
		for _, id := range src.Stats.Live {
			if id == m.ID {
				return onSource, ""
			}
		}
	} else {
		return onSource, ""
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		tgt, terr := f.request(nil, m.To, hostproto.Command{Op: hostproto.OpStats})
		if terr == nil {
			for _, id := range tgt.Stats.Live {
				if strings.HasPrefix(id, m.ID+"@") {
					return onTarget, id
				}
			}
			if tgt.Stats.InflightIn == 0 {
				return nowhere, ""
			}
		}
		if time.Now().After(deadline) {
			return nowhere, ""
		}
		time.Sleep(5 * time.Millisecond)
	}
}
