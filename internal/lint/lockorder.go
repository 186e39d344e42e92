package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// lockOrder builds a module-wide lock-acquisition graph and reports cycles
// (potential deadlocks). Nodes are mutex variables; an edge A→B is recorded
// whenever B is acquired — directly, or anywhere inside a possible callee —
// while A is held, with "held" meaning what it means to lockdiscipline: the
// shared lock model's must-analysis (lockmodel.go), so a failed TryLock
// holds nothing and a mode-dependent Lock-or-RLock is one acquisition.
//
// "What does this callee acquire" is a bottom-up summary over the module
// call graph (SolveSummaries): a function acquires what its own frame locks
// plus what its callees acquire, interface calls dispatching to every
// module implementation. Work started with `go` — a launched call or
// anything inside a `go` literal — belongs to another goroutine and is not
// part of its creator's summary. Calls through function values have no
// static callee and contribute nothing — a documented limit. Two locks
// acquired in both orders, or a lock re-acquired while already held
// (directly or via a callee), are reported at the offending acquisition
// site.
//
// The checker also validates the "// guarded by <name>" annotations that
// lockdiscipline consumes: the named guard must be a sibling field of
// mutex type, otherwise the annotation silently protects nothing.
type lockOrder struct {
	prog  *Program
	diags map[*Package][]Diagnostic
}

func (*lockOrder) Name() string { return "lockorder" }

func (*lockOrder) Doc() string {
	return `mutex acquisition order must be consistent and acyclic across the module; "guarded by" must name a sibling mutex`
}

func (lo *lockOrder) Check(prog *Program, pkg *Package) []Diagnostic {
	if lo.prog != prog {
		lo.prog = prog
		lo.diags = lo.analyzeModule(prog)
	}
	return lo.diags[pkg]
}

// lockEdge is one observed nesting: to was acquired while from was held.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
	pkg      *Package
}

// funcLocks is what the lock model observed in one declared function.
type funcLocks struct {
	// acquires is every lock the function's own goroutine locks in its body;
	// callees the possible callees of the calls it makes there.
	acquires lockFact
	callees  []*types.Func
	// edges are direct nestings; calls are the calls made with a lock held.
	edges []lockEdge
	calls []heldCall
}

type heldCall struct {
	held    lockFact
	callees []*types.Func
	pos     token.Pos
}

func observeLocks(g *CallGraph, d *FuncDecl) *funcLocks {
	fl := &funcLocks{acquires: lockFact{}}
	walkLocks(d.Pkg, d.Decl, func(ev lockEvent) {
		switch {
		case ev.acquired != nil:
			for h := range ev.held {
				fl.edges = append(fl.edges, lockEdge{from: h, to: ev.acquired, pos: ev.call.Pos(), pkg: d.Pkg})
			}
			if !ev.detached {
				fl.acquires[ev.acquired] = true
			}
		case ev.call != nil:
			callees := g.Callees(d.Pkg, ev.call)
			if !ev.detached {
				fl.callees = append(fl.callees, callees...)
			}
			if len(ev.held) > 0 && len(callees) > 0 {
				fl.calls = append(fl.calls, heldCall{held: maps.Clone(ev.held), callees: callees, pos: ev.call.Pos()})
			}
		}
	})
	return fl
}

// acquireAnalysis is the SummaryAnalysis behind "what may this call lock":
// a function's own acquisitions plus its callees' summaries.
type acquireAnalysis struct {
	facts map[*types.Func]*funcLocks
}

func (acquireAnalysis) Bottom() lockFact         { return nil }
func (acquireAnalysis) Equal(a, b lockFact) bool { return maps.Equal(a, b) }

func (a acquireAnalysis) Compute(fd *FuncDecl, get func(*types.Func) lockFact) lockFact {
	fl := a.facts[fd.Fn]
	out := maps.Clone(fl.acquires)
	for _, callee := range fl.callees {
		maps.Copy(out, get(callee))
	}
	return out
}

func (lo *lockOrder) analyzeModule(prog *Program) map[*Package][]Diagnostic {
	diags := make(map[*Package][]Diagnostic)
	emit := func(pkg *Package, pos token.Pos, format string, args ...any) {
		diags[pkg] = append(diags[pkg], Diagnostic{Pos: prog.Fset.Position(pos), Rule: "lockorder", Message: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range prog.Packages {
		for field, g := range collectGuards(pkg) {
			if g.mu == nil {
				emit(pkg, field.Pos(), "guarded-by annotation names %q, but the struct has no sibling mutex field with that name", g.name)
			}
		}
	}

	// Per-function observations, then the callee summaries, then the edges:
	// direct nestings plus held-across-call acquisitions.
	g := prog.CallGraph()
	facts := make(map[*types.Func]*funcLocks)
	for _, comp := range g.SCCs() {
		for _, fn := range comp {
			facts[fn] = observeLocks(g, g.Decl(fn))
		}
	}
	acquired := SolveSummaries[lockFact](g, acquireAnalysis{facts: facts})
	var edges []lockEdge
	for fn, fl := range facts {
		pkg := g.Decl(fn).Pkg
		edges = append(edges, fl.edges...)
		for _, hc := range fl.calls {
			for _, callee := range hc.callees {
				for v := range acquired[callee] {
					for h := range hc.held {
						edges = append(edges, lockEdge{from: h, to: v, pos: hc.pos, pkg: pkg})
					}
				}
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })

	// Cycle detection. Self-edges are immediate findings; for the rest, an
	// edge whose endpoints are mutually reachable is part of a cycle
	// (inconsistent acquisition order).
	adj := make(map[*types.Var]map[*types.Var]token.Pos)
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = make(map[*types.Var]token.Pos)
		}
		if _, ok := adj[e.from][e.to]; !ok {
			adj[e.from][e.to] = e.pos
		}
	}
	seenSelf := make(map[token.Pos]bool)
	type pair struct{ a, b *types.Var }
	seenPair := make(map[pair]bool)
	for _, e := range edges {
		if e.from == e.to {
			if !seenSelf[e.pos] {
				seenSelf[e.pos] = true
				emit(e.pkg, e.pos, "lock %s is acquired while already held (self-deadlock)", lockName(e.from))
			}
			continue
		}
		if seenPair[pair{e.from, e.to}] {
			continue
		}
		if backPos, cyclic := reaches(adj, e.to, e.from); cyclic {
			seenPair[pair{e.from, e.to}] = true
			emit(e.pkg, e.pos, "acquiring %s while holding %s conflicts with the reverse order at %s (lock-order cycle)",
				lockName(e.to), lockName(e.from), prog.Fset.Position(backPos))
		}
	}
	return diags
}

// reaches reports whether from can reach target in adj, returning the
// position of the edge leaving from on a path — a real acquisition site.
func reaches(adj map[*types.Var]map[*types.Var]token.Pos, from, target *types.Var) (token.Pos, bool) {
	visited := make(map[*types.Var]bool)
	var dfs func(v *types.Var) (token.Pos, bool)
	dfs = func(v *types.Var) (token.Pos, bool) {
		if visited[v] {
			return token.NoPos, false
		}
		visited[v] = true
		for next, pos := range adj[v] {
			if next == target {
				return pos, true
			}
			if _, ok := dfs(next); ok {
				return pos, true
			}
		}
		return token.NoPos, false
	}
	return dfs(from)
}

// lockName renders a mutex for diagnostics: "Struct.field" for a field of a
// package-level struct type, the bare variable name otherwise.
func lockName(v *types.Var) string {
	if v.IsField() && v.Pkg() != nil {
		scope := v.Pkg().Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i) == v {
						return name + "." + v.Name()
					}
				}
			}
		}
	}
	return v.Name()
}
