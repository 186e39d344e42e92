// Command compare reads two result files written by `go run . -out <dir>`
// in the benchmark's directory and prints one row per workload ×
// end-to-end metric: both medians over the timed rounds, the ratio with its
// base, the bound, and a verdict.
//
//	go run ./compare old/result.json new/result.json
//
// Verdicts: "regressed" when the new median is worse than the old by more
// than the bound; "unresolved" when either file's own round-to-round
// spread exceeds the bound, so the pair cannot tell a change of that size
// from noise (unless every new round beats every old round, which is an
// improvement whatever the noise); "ok" otherwise. Exit status 1 on any
// regression, 2 on a usage or file error.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/benchmark/report"
)

// verdict classifies one cell. worse is how much worse the new median is
// than the old as a share of the old (negative = better).
func verdict(spec report.Spec, old, new []float64) (worse float64, v string) {
	om, nm := report.Median(old), report.Median(new)
	worse = (nm - om) / om
	if spec.Better == "higher" {
		worse = -worse
	}
	if max(report.Spread(old), report.Spread(new)) > spec.Bound && !allBetter(spec, old, new) {
		return worse, "unresolved"
	}
	if worse > spec.Bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// allBetter reports whether every new round reads better than every old.
func allBetter(spec report.Spec, old, new []float64) bool {
	if spec.Better == "higher" {
		return report.Quantile(new, 0) > report.Quantile(old, 1)
	}
	return report.Quantile(new, 1) < report.Quantile(old, 0)
}

func run(oldPath, newPath string) (regressed int, err error) {
	old, err := report.ReadFile(oldPath)
	if err != nil {
		return 0, err
	}
	cur, err := report.ReadFile(newPath)
	if err != nil {
		return 0, err
	}
	fmt.Printf("old: %s  seed=%d sha=%s %d×%gs GOMAXPROCS=%d\n", oldPath, old.Seed, old.GitSHA, old.Rounds, old.Seconds, old.GOMAXPROCS)
	fmt.Printf("new: %s  seed=%d sha=%s %d×%gs GOMAXPROCS=%d\n", newPath, cur.Seed, cur.GitSHA, cur.Rounds, cur.Seconds, cur.GOMAXPROCS)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tnew/old\tspread old/new\tbound\tverdict")
	// The bounds are the old file's: a change must not loosen the gate it
	// is judged by.
	for _, w := range report.Workloads {
		for _, spec := range old.EndToEnd {
			ov, nv := old.Values(w.Name, spec.Name), cur.Values(w.Name, spec.Name)
			if len(ov) == 0 || len(nv) == 0 {
				return regressed, fmt.Errorf("%s %s: missing from one of the files", w.Name, spec.Name)
			}
			worse, v := verdict(spec, ov, nv)
			if v == "regressed" {
				regressed++
			}
			om, nm := report.Median(ov), report.Median(nv)
			dir := "worse"
			if worse < 0 {
				dir, worse = "better", -worse
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.3f× of %.4f (%.1f%% %s)\t%.1f%% / %.1f%%\t%.0f%%\t%s\n",
				w.Name, spec.Name, om, spec.Unit, nm, spec.Unit,
				nm/om, om, worse*100, dir, report.Spread(ov)*100, report.Spread(nv)*100, spec.Bound*100, v)
		}
	}
	return regressed, tw.Flush()
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare old/result.json new/result.json")
		os.Exit(2)
	}
	regressed, err := run(os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if regressed > 0 {
		fmt.Printf("%d cell(s) regressed\n", regressed)
		os.Exit(1)
	}
}
