package lint

import "go/types"

// Bottom-up summary solver: computes a per-function effect summary for
// every declared function in the module, in the call graph's reverse
// topological SCC order (callees before callers), so by the time a
// function is summarized its callees' summaries are already available.
//
// Mutual recursion is handled by iterating each SCC to a local fixpoint:
// members start at Bottom, are recomputed in turn reading each other's
// current (possibly partial) summaries through the getter, and the round
// repeats until no member's summary changes. Summaries must therefore be
// monotone in their callees' summaries and the summary domain must have
// finite height for termination — true for the set/bitmask domains the
// rules here use (mutex sets, taint masks).
//
// The solver is deliberately generic over the summary type S: lockorder
// instantiates it with acquired-mutex sets, plainflow with result-taint and
// sink-parameter records (Bottom = "no summary yet"). The summary layer only sequences
// their Compute passes correctly.

// SummaryAnalysis computes one function's summary given its syntax and a
// getter for (current) callee summaries.
type SummaryAnalysis[S any] interface {
	// Bottom is the initial summary every function starts from: the
	// least element of the summary lattice (no effects known yet).
	Bottom() S
	// Compute derives fn's summary from its body. get returns the
	// current summary of any declared function — final for callees in
	// earlier SCCs, in-progress for members of fn's own SCC.
	Compute(fd *FuncDecl, get func(*types.Func) S) S
	// Equal reports whether two summaries are the same; the per-SCC
	// fixpoint iteration stops when every member's summary is Equal to
	// its previous round.
	Equal(a, b S) bool
}

// sccIterCap bounds the per-SCC fixpoint rounds. The domains used here
// are finite-height so this never binds in practice; it is a backstop
// against a non-monotone Compute looping forever.
const sccIterCap = 32

// SolveSummaries runs a bottom-up over the call graph and returns the
// summary of every declared function.
func SolveSummaries[S any](g *CallGraph, an SummaryAnalysis[S]) map[*types.Func]S {
	out := make(map[*types.Func]S, len(g.decls))
	get := func(fn *types.Func) S {
		if s, ok := out[fn]; ok {
			return s
		}
		return an.Bottom()
	}
	for _, comp := range g.SCCs() {
		for _, fn := range comp {
			out[fn] = an.Bottom()
		}
		for iter := 0; iter < sccIterCap; iter++ {
			changed := false
			for _, fn := range comp {
				next := an.Compute(g.decls[fn], get)
				if !an.Equal(out[fn], next) {
					out[fn] = next
					changed = true
				}
			}
			// A singleton component that does not call itself needs
			// exactly one round; a recursive SCC iterates until stable.
			if !changed || (len(comp) == 1 && !g.selfRecursive(comp[0])) {
				break
			}
		}
	}
	return out
}

// selfRecursive reports whether fn has a direct edge to itself.
func (g *CallGraph) selfRecursive(fn *types.Func) bool {
	for _, c := range g.callees[fn] {
		if c == fn {
			return true
		}
	}
	return false
}
