package fleet

import (
	"strings"
	"testing"

	"repro/internal/hostproto"
	"repro/internal/telemetry"
)

// TestCheckInvariants holds the checker to each property on hand-built
// journals: a clean hop, a clean lost hop and a hop that never left pass;
// each seeded breach is reported under its rule.
func TestCheckInvariants(t *testing.T) {
	const a, b = "hostA", "hostB"
	rec := func(at int64, host string, kind telemetry.EventKind, id string) telemetry.Record {
		return telemetry.Record{WallNs: at, Host: host, Kind: kind, EnclaveID: id}
	}
	hop := []telemetry.Record{
		rec(1, a, telemetry.EventQuiesce, "c-1"),
		rec(2, a, telemetry.EventSelfDestroy, "c-1"),
		rec(3, a, telemetry.EventKeyRelease, "c-1"),
		rec(4, b, telemetry.EventKeyReceive, "c-1"),
		rec(5, b, telemetry.EventRestoreFinish, "c-1"),
	}
	on := func(host string, ids ...string) HostStatus {
		return HostStatus{Addr: host, Stats: hostproto.HostStats{Live: ids}}
	}
	moved := Result{Migration: Migration{ID: "c-1", From: a, To: b}, Outcome: Moved}
	lost := moved
	lost.Outcome = Lost
	with := func(recs []telemetry.Record, extra ...telemetry.Record) []telemetry.Record {
		return append(append([]telemetry.Record(nil), recs...), extra...)
	}

	for _, tc := range []struct {
		name    string
		recs    []telemetry.Record
		hosts   []HostStatus
		results []Result
		want    string // the rule that must be reported; "" = none at all
	}{
		{"clean hop", hop, []HostStatus{on(a), on(b, "c-1@1")}, []Result{moved}, ""},
		{"clean loss", hop[:3], []HostStatus{on(a), on(b)}, []Result{lost}, ""},
		{"never left", nil, []HostStatus{on(a, "c-1"), on(b)}, []Result{{Migration: moved.Migration, Outcome: Failed}}, ""},
		{"key released twice", with(hop, rec(6, a, telemetry.EventKeyRelease, "c-1")),
			[]HostStatus{on(b, "c-1@1")}, []Result{moved}, RuleOneRelease},
		{"restore-finish on a lost hop", hop, []HostStatus{on(b, "c-1@1")}, []Result{lost}, RuleLostNotRestore},
		{"release before destroy", []telemetry.Record{
			rec(1, a, telemetry.EventKeyRelease, "c-1"),
			rec(2, a, telemetry.EventSelfDestroy, "c-1"),
			rec(3, b, telemetry.EventRestoreFinish, "c-1"),
		}, []HostStatus{on(b, "c-1@1")}, []Result{moved}, RuleDestroyFirst},
		{"restored before the source died", []telemetry.Record{
			rec(1, b, telemetry.EventRestoreFinish, "c-1"),
			rec(2, a, telemetry.EventSelfDestroy, "c-1"),
			rec(3, a, telemetry.EventKeyRelease, "c-1"),
		}, []HostStatus{on(b, "c-1@1")}, []Result{moved}, RuleSingleLive},
		{"moved but never restored", hop[:3], []HostStatus{on(b)}, []Result{moved}, RuleOneRestore},
		{"listed twice", hop, []HostStatus{on(a, "c-1"), on(b, "c-1@1")}, []Result{moved}, RuleListing},
		{"lost but listed", hop[:3], []HostStatus{on(b, "c-1@1")}, nil, RuleListing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := CheckInvariants(tc.recs, tc.hosts, tc.results)
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("violations on a clean journal: %v", got)
				}
				return
			}
			for _, v := range got {
				if v.Rule == tc.want && v.Lineage == "c-1" {
					return
				}
			}
			t.Fatalf("no %s violation reported; got %v", tc.want, got)
		})
	}
}

// TestLineage: a lineage is the id before its first "@", however many hops
// deep.
func TestLineage(t *testing.T) {
	for in, want := range map[string]string{"counter-3": "counter-3", "counter-3@1": "counter-3", "counter-3@1@4": "counter-3"} {
		if got := Lineage(in); got != want {
			t.Errorf("Lineage(%q) = %q, want %q", in, got, want)
		}
	}
	if v := (Violation{Lineage: "c", Rule: RuleListing, Detail: "d"}).String(); !strings.Contains(v, RuleListing) {
		t.Errorf("Violation.String() = %q", v)
	}
}
