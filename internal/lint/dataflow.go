package lint

import (
	"go/ast"
)

// This file is the solver half of the dataflow engine (the CFG builder
// lives in cfg.go): a generic forward worklist solver parameterized over a
// fact lattice. An analyzer supplies the lattice operations through the
// Analysis interface and gets back the fact at every block entry; it then
// replays Transfer over the blocks' nodes to recover facts at interior
// points (see Replay).
//
// The meet is the analysis's own: a must-analysis (the lock model's
// held-mutex sets) intersects, so a fact survives a join only when every
// reaching path establishes it; a may-analysis would take the union.
//
// Branch refinement: when a block ends in a conditional branch, the fact
// leaving along the true and false edges is refined through TransferCond —
// that is how "if mu.TryLock()" holds the lock on exactly the success arm.

// Analysis defines one forward dataflow problem.
type Analysis[F any] interface {
	// Entry is the fact at function entry.
	Entry() F
	// Meet combines two facts at a control-flow join.
	Meet(a, b F) F
	// Transfer applies one block node's effect. Implementations must not
	// mutate f in place unless they own it; Clone provides copies.
	Transfer(n ast.Node, f F) F
	// TransferCond refines the fact leaving a block that ends in the
	// conditional cond, along the branch (true/false) edge.
	TransferCond(cond ast.Expr, branch bool, f F) F
	// Equal reports whether two facts are equal (the fixpoint test).
	Equal(a, b F) bool
	// Clone returns an independent copy of f.
	Clone(f F) F
}

// Solve runs the worklist to a fixpoint and returns each reachable block's
// entry fact. Blocks absent from the result are unreachable from Entry
// (dead code after return/panic); analyzers skip them.
func Solve[F any](cfg *CFG, an Analysis[F]) map[*Block]F {
	in := make(map[*Block]F, len(cfg.Blocks))
	in[cfg.Entry] = an.Entry()

	work := []*Block{cfg.Entry}
	queued := map[*Block]bool{cfg.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false

		out := an.Clone(in[blk])
		for _, n := range blk.Nodes {
			out = an.Transfer(n, out)
		}
		for _, e := range blk.Succs {
			fact := out
			if blk.Cond != nil && (e.Kind == EdgeTrue || e.Kind == EdgeFalse) {
				fact = an.TransferCond(blk.Cond, e.Kind == EdgeTrue, an.Clone(out))
			}
			prev, seen := in[e.To]
			var merged F
			if !seen {
				merged = an.Clone(fact)
			} else {
				merged = an.Meet(an.Clone(prev), fact)
			}
			if !seen || !an.Equal(prev, merged) {
				in[e.To] = merged
				if !queued[e.To] {
					queued[e.To] = true
					work = append(work, e.To)
				}
			}
		}
	}
	return in
}

// Replay walks every reachable block of a solved CFG, calling visit with
// the fact in force immediately before each node and then applying the
// node's Transfer. It is how checkers recover interior-point facts (and how
// analyses whose Transfer reports findings derive them from converged facts
// only) without the solver storing per-node state.
func Replay[F any](cfg *CFG, an Analysis[F], in map[*Block]F, visit func(n ast.Node, f F)) {
	for _, blk := range cfg.Blocks {
		entry, reachable := in[blk]
		if !reachable {
			continue
		}
		f := an.Clone(entry)
		for _, n := range blk.Nodes {
			visit(n, f)
			f = an.Transfer(n, f)
		}
	}
}
