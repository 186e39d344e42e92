package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Violation is one broken single-instance property of one lineage.
type Violation struct {
	Lineage string
	Rule    string
	Detail  string
}

func (v Violation) String() string { return v.Lineage + ": " + v.Rule + ": " + v.Detail }

// The rules CheckInvariants reports, by name.
const (
	RuleSingleLive     = "single-live"            // never two live instances of a lineage
	RuleDestroyFirst   = "destroy-before-release" // self-destroy strictly before key-release
	RuleOneRelease     = "one-release"            // one key-release per hop that moved
	RuleOneRestore     = "one-restore"            // one restore-finish per hop that moved
	RuleLostNotRestore = "lost-not-restored"      // no restore-finish for a lost hop
	RuleListing        = "listing"                // the hosts list what the journal says is live
)

// Lineage names the enclave an instance descends from: its id up to the
// first "@". A target registers an inbound enclave as "<id>@<n>", and a
// later hop of that one as "<id>@<n>@<m>". Ids are per host, so a lineage
// is one enclave only where every enclave was launched on one host.
func Lineage(id string) string {
	if i := strings.IndexByte(id, '@'); i >= 0 {
		return id[:i]
	}
	return id
}

// CheckInvariants checks the paper's single-instance guarantee (Sec. V) per
// lineage, over a merged journal (Fleet.Journal), the hosts' final listings
// (a Snapshot after a Poll) and the results of the control-plane operations
// that ran. It reads nothing else and returns every violation it finds:
//
//   - at most one live instance at every point in journal order. Each
//     lineage starts with one; a self-destroy takes one away, a
//     restore-finish adds one;
//   - the count the journal ends on is the number of hosts whose listing
//     holds the lineage live;
//   - self-destroy strictly before key-release: each key-release follows
//     a self-destroy of the lineage on the same host that no earlier
//     key-release answered;
//   - exactly one key-release for a Moved or MovedAfterError result, at
//     most one for a Lost one, none for a Failed one — each on the result's
//     source host;
//   - exactly one restore-finish for a Moved or MovedAfterError result and
//     none for a Lost one, on the result's target host.
//
// A result is matched to records by its TraceID when it has one, and
// otherwise by lineage and host alone. Journal order is wall-clock order,
// ties in merged order: the fleet merges each host's tail when it scrapes
// it, so the merged sequence interleaves hosts by scrape time, while one
// host's records keep their own order either way. Hosts' clocks must agree
// to better than a key release takes to reach the target, as they do in a
// one-process fleet.
func CheckInvariants(recs []telemetry.Record, hosts []HostStatus, results []Result) []Violation {
	ordered := append([]telemetry.Record(nil), recs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].WallNs < ordered[j].WallNs })

	var out []Violation
	report := func(lineage, rule, format string, args ...any) {
		out = append(out, Violation{Lineage: lineage, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}

	type lineageState struct {
		live       int
		unreleased map[string]int // per host: self-destroys no key-release has answered yet
	}
	states := map[string]*lineageState{}
	var names []string
	state := func(l string) *lineageState {
		st, ok := states[l]
		if !ok {
			st = &lineageState{live: 1, unreleased: map[string]int{}}
			states[l] = st
			names = append(names, l)
		}
		return st
	}
	for _, r := range ordered {
		l := Lineage(r.EnclaveID)
		switch r.Kind {
		case telemetry.EventSelfDestroy:
			st := state(l)
			st.live--
			st.unreleased[r.Host]++
		case telemetry.EventRestoreFinish:
			st := state(l)
			st.live++
			if st.live > 1 {
				report(l, RuleSingleLive, "%d live instances once %s restored it (journal seq %d)", st.live, r.Host, r.Seq)
			}
		case telemetry.EventKeyRelease:
			st := state(l)
			if st.unreleased[r.Host] == 0 {
				report(l, RuleDestroyFirst, "key-release on %s (journal seq %d) follows no self-destroy there", r.Host, r.Seq)
				continue
			}
			st.unreleased[r.Host]--
		default:
			// The other kinds neither create nor end an instance.
		}
	}

	listed := map[string]int{}
	for _, h := range hosts {
		for _, id := range h.Stats.Live {
			l := Lineage(id)
			state(l)
			listed[l]++
		}
	}
	sort.Strings(names)
	for _, l := range names {
		if want := states[l].live; listed[l] != want {
			report(l, RuleListing, "the journal leaves %d live instances, the hosts list %d", want, listed[l])
		}
	}

	for _, res := range results {
		l := Lineage(res.ID)
		releases, restores := 0, 0
		for _, r := range recs {
			if Lineage(r.EnclaveID) != l || (!res.TraceID.IsZero() && r.TraceID != res.TraceID) {
				continue
			}
			switch {
			case r.Kind == telemetry.EventKeyRelease && r.Host == res.From:
				releases++
			case r.Kind == telemetry.EventRestoreFinish && r.Host == res.To:
				restores++
			}
		}
		switch res.Outcome {
		case Moved, MovedAfterError:
			if releases != 1 {
				report(l, RuleOneRelease, "%s %s→%s: %d key-releases, want 1", res.Outcome, res.From, res.To, releases)
			}
			if restores != 1 {
				report(l, RuleOneRestore, "%s %s→%s: %d restore-finishes, want 1", res.Outcome, res.From, res.To, restores)
			}
		case Lost:
			if releases > 1 {
				report(l, RuleOneRelease, "lost %s→%s: %d key-releases, want at most 1", res.From, res.To, releases)
			}
			if restores != 0 {
				report(l, RuleLostNotRestore, "lost %s→%s: %d restore-finishes, want none", res.From, res.To, restores)
			}
		case Failed:
			if releases != 0 {
				report(l, RuleOneRelease, "failed %s→%s: %d key-releases, want none", res.From, res.To, releases)
			}
		}
	}
	return out
}
