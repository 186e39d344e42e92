// Command sgxlint runs the repo-specific static-analysis suite over the
// module containing the working directory and prints one "file:line: rule:
// message" diagnostic per finding, exiting nonzero if any survive. See
// docs/LINT.md for the rule catalogue and suppression policy.
//
// Usage:
//
//	go run ./cmd/sgxlint ./...
//	go run ./cmd/sgxlint -json ./...
//	go run ./cmd/sgxlint -sarif report.sarif ./...
//	go run ./cmd/sgxlint -rule lockdiscipline,lockorder ./...
//	go run ./cmd/sgxlint -rules
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	root := flag.String("root", "", "module root to lint (default: nearest go.mod above the working directory)")
	rules := flag.Bool("rules", false, "list the rules and exit")
	ruleFilter := flag.String("rule", "", "comma-separated rule names to run (default: all; see -rules)")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array (same exit code); CI archives this")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 report to this file (combinable with -json; written before the findings exit code)")
	flag.Parse()

	if *rules {
		for _, c := range lint.Checkers(lint.DefaultConfig("repro")) {
			fmt.Printf("%-16s %s\n", c.Name(), c.Doc())
		}
		return
	}

	var only []string
	if *ruleFilter != "" {
		known := make(map[string]bool)
		for _, c := range lint.Checkers(lint.DefaultConfig("repro")) {
			known[c.Name()] = true
		}
		for _, name := range strings.Split(*ruleFilter, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				fmt.Fprintf(os.Stderr, "sgxlint: unknown rule %q (see -rules)\n", name)
				os.Exit(2)
			}
			only = append(only, name)
		}
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgxlint:", err)
			os.Exit(2)
		}
	}
	diags, err := lint.RunRules(dir, nil, only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgxlint:", err)
		os.Exit(2)
	}
	for i := range diags {
		if rel, err := filepath.Rel(dir, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}
	if *sarifOut != "" {
		// The SARIF report is a side channel for code-scanning uploads:
		// write it whether or not there are findings, before the exit
		// code below, so CI's if:always() artifact step has it even on a
		// red gate.
		f, err := os.Create(*sarifOut)
		if err == nil {
			err = lint.WriteSARIF(f, diags, lint.DefaultConfig("repro"))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgxlint: sarif:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "sgxlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sgxlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
