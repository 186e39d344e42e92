package lint

import (
	"path/filepath"
	"testing"
)

// loadTaintFixture loads the plainflow rule's fixture module and its call
// graph.
func loadTaintFixture(t *testing.T) *CallGraph {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", "taint"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	return prog.CallGraph()
}

// TestCallGraphBottomUp checks the structural invariant the summary solver
// relies on: SCCs come out in bottom-up order, so every edge lands in a
// component at or before its caller's.
func TestCallGraphBottomUp(t *testing.T) {
	g := loadTaintFixture(t)
	if len(g.SCCs()) == 0 {
		t.Fatal("empty condensation")
	}
	for _, comp := range g.SCCs() {
		for _, fn := range comp {
			for _, callee := range g.callees[fn] {
				if g.sccIndex[callee] > g.sccIndex[fn] {
					t.Errorf("edge %s -> %s goes up the condensation (%d -> %d)",
						fn.FullName(), callee.FullName(), g.sccIndex[fn], g.sccIndex[callee])
				}
			}
		}
	}
}

// TestCallGraphEdges spot-checks resolved edges and recursion detection on
// the fixture: LeakDeep reaches fetch through deep01…deep20, and swapRec is
// self-recursive (its own one-function SCC with a self-edge).
func TestCallGraphEdges(t *testing.T) {
	g := loadTaintFixture(t)
	byName := make(map[string]int) // function name -> SCC index
	var recEdges []string
	for _, comp := range g.SCCs() {
		for _, fn := range comp {
			byName[fn.Name()] = g.sccIndex[fn]
			if fn.Name() == "swapRec" {
				for _, c := range g.callees[fn] {
					recEdges = append(recEdges, c.Name())
				}
				if !g.selfRecursive(fn) {
					t.Error("swapRec should be self-recursive")
				}
				if !g.SameSCC(fn, fn) {
					t.Error("SameSCC should hold reflexively for graph members")
				}
			}
		}
	}
	for _, name := range []string{"LeakDeep", "deep01", "deep20", "fetch", "swapRec", "LeakRecursive"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("%s missing from call graph", name)
		}
	}
	// Callees sit in earlier (or equal, for recursion) components.
	if byName["fetch"] >= byName["deep20"] || byName["deep20"] >= byName["deep01"] || byName["deep01"] >= byName["LeakDeep"] {
		t.Errorf("helpers should condense before their callers: fetch=%d deep20=%d deep01=%d caller=%d",
			byName["fetch"], byName["deep20"], byName["deep01"], byName["LeakDeep"])
	}
	if byName["swapRec"] >= byName["LeakRecursive"] {
		t.Errorf("swapRec (%d) should condense before LeakRecursive (%d)", byName["swapRec"], byName["LeakRecursive"])
	}
	found := false
	for _, e := range recEdges {
		if e == "swapRec" {
			found = true
		}
	}
	if !found {
		t.Errorf("swapRec should have a self-edge, has %v", recEdges)
	}
}
