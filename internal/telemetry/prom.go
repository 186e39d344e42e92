package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// promName maps an instrument name to the Prometheus metric-name charset:
// dots and every other illegal rune become underscores, and a leading
// digit is prefixed. "host.migrations.out" → "host_migrations_out".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm dumps every instrument in the Prometheus text exposition
// format (version 0.0.4): counters as <name>_total, gauges plain, ratios
// as a hit/observation counter pair, histograms with cumulative
// le-labelled buckets plus _sum and _count. Names are sanitized by
// promName and emitted sorted, each with # HELP/# TYPE headers, so any
// Prometheus-compatible scraper can ingest the same registry /metrics
// serves in the homegrown plain format. A nil registry writes only a
// comment, which still parses as an empty exposition.
func (m *Metrics) WriteProm(w io.Writer) error {
	if m == nil {
		_, err := fmt.Fprintln(w, "# telemetry disabled")
		return err
	}
	snap := m.snapshot()

	for _, c := range snap.counters {
		pn := promName(c.name) + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			pn, c.name, pn, pn, c.v.Value()); err != nil {
			return err
		}
	}
	for _, g := range snap.gauges {
		pn := promName(g.name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			pn, g.name, pn, pn, g.v.Value()); err != nil {
			return err
		}
	}
	for _, r := range snap.ratios {
		hitName := promName(r.name) + "_hits_total"
		obsName := promName(r.name) + "_observations_total"
		if _, err := fmt.Fprintf(w, "# HELP %s hits of ratio %s\n# TYPE %s counter\n%s %d\n",
			hitName, r.name, hitName, hitName, r.v.Hits()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# HELP %s observations of ratio %s\n# TYPE %s counter\n%s %d\n",
			obsName, r.name, obsName, obsName, r.v.Total()); err != nil {
			return err
		}
	}
	for _, h := range snap.hists {
		s := h.v.Snapshot()
		pn := promName(h.name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", pn, h.name, pn); err != nil {
			return err
		}
		// Prometheus buckets are cumulative; the homegrown snapshot's are
		// per-bucket, so accumulate while emitting.
		var cum int64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b, cum); err != nil {
				return err
			}
		}
		cum += s.Counts[len(s.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, cum, pn, s.Sum, pn, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// CounterValues snapshots every counter by name. The fleet federator
// scrapes it (via the OpEvents response) to build per-host rate series; a
// nil registry snapshots to nil.
func (m *Metrics) CounterValues() map[string]int64 {
	if m == nil {
		return nil
	}
	snap := m.snapshot()
	out := make(map[string]int64, len(snap.counters))
	for _, c := range snap.counters {
		out[c.name] = c.v.Value()
	}
	return out
}
