package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the module-wide call graph the interprocedural analyses
// (summary.go's bottom-up solver and its clients: lockorder, plainflow) run
// over.
//
// Nodes are the module's declared functions and methods (*types.Func with a
// body in the loaded program). Edges are:
//
//   - static calls: `f(x)`, `pkg.F(x)`, and method calls with a concrete
//     receiver, resolved through go/types;
//   - interface dispatch: a call through an interface method edges to every
//     module-defined implementation of that method, via the program's one
//     implements-index (iface.go) — conservative in the direction bottom-up
//     analyses need, since any implementation may be the dynamic callee;
//   - calls made inside function literals are attributed to the literal's
//     enclosing declared function: the literal runs with (a closure over)
//     the enclosing frame, and the summary analyses treat its effects as
//     the function's own.
//
// Calls through plain function values (variables of function type) have no
// static callee and produce no edge; analyses treat them as unknown callees
// at the call site. Test files are excluded — summaries describe shipped
// code, and tests deliberately half-use resources to probe failure paths.
//
// SCC condensation: Tarjan's algorithm groups mutually recursive functions
// into strongly connected components and orders the components bottom-up
// (callees before callers), so the summary solver can compute each SCC's
// summaries to a local fixpoint and never revisit it.

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	prog  *Program
	impls *ifaceIndex

	// decls maps each declared function to its body and package.
	decls map[*types.Func]*FuncDecl
	// callees maps each declared function to its unique outgoing edges,
	// sorted by position for determinism.
	callees map[*types.Func][]*types.Func
	// sccs are the condensation's components in bottom-up (reverse
	// topological) order: every call from sccs[i] lands in sccs[j] with
	// j <= i.
	sccs [][]*types.Func
	// sccIndex maps a function to its component's index in sccs.
	sccIndex map[*types.Func]int
}

// FuncDecl ties one declared function to its syntax and package.
type FuncDecl struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// CallGraph returns the program's call graph, building it on first use and
// caching it so the interprocedural rules share one graph and one
// implements-index per run.
func (p *Program) CallGraph() *CallGraph {
	if p.callgraph == nil {
		p.callgraph = BuildCallGraph(p)
	}
	return p.callgraph
}

// BuildCallGraph constructs the call graph of the whole program. The
// interface implements-index is built once and shared with any analysis
// that wants dispatch resolution (ImplsOf).
func BuildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		prog:     prog,
		impls:    newIfaceIndex(prog),
		decls:    make(map[*types.Func]*FuncDecl),
		callees:  make(map[*types.Func][]*types.Func),
		sccIndex: make(map[*types.Func]int),
	}
	// Pass 1: collect declared functions (non-test files).
	var order []*types.Func // deterministic node order: package, then position
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			if pkg.TestFile[f] {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls[fn] = &FuncDecl{Fn: fn, Decl: fd, Pkg: pkg}
				order = append(order, fn)
			}
		}
	}
	// Pass 2: edges.
	for _, fn := range order {
		d := g.decls[fn]
		seen := make(map[*types.Func]bool)
		var edges []*types.Func
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range g.Callees(d.Pkg, call) {
				if _, declared := g.decls[callee]; declared && !seen[callee] {
					seen[callee] = true
					edges = append(edges, callee)
				}
			}
			return true
		})
		sort.Slice(edges, func(i, j int) bool { return edges[i].Pos() < edges[j].Pos() })
		g.callees[fn] = edges
	}
	g.condense(order)
	return g
}

// Decl returns the declaration record of fn, or nil when fn is not a
// declared module function (stdlib, interface method without a body, ...).
func (g *CallGraph) Decl(fn *types.Func) *FuncDecl {
	return g.decls[fn]
}

// staticCallee resolves a call to its static callee — the declared origin
// for a generic instantiation (core.table[V] methods), which is what the
// call graph and every summary map are keyed by — or nil for calls through
// function values, conversions, and builtins.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[f.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// Callees resolves one call site to its possible declared callees: the
// static callee for direct calls, every module implementation for interface
// dispatch, nil for calls through plain function values. The static callee
// is returned even when it has no body in the module (callers check Decl).
func (g *CallGraph) Callees(pkg *Package, call *ast.CallExpr) []*types.Func {
	fn := staticCallee(pkg, call)
	if fn == nil {
		return nil
	}
	if impls := g.ImplsOf(fn); len(impls) > 0 {
		return impls
	}
	return []*types.Func{fn}
}

// ImplsOf returns the module methods that can stand behind a call to the
// interface method fn; nil when fn is not one or nothing implements it.
func (g *CallGraph) ImplsOf(fn *types.Func) []*types.Func { return g.impls.implsOf(fn) }

// SCCs returns the condensation components bottom-up: callees' components
// before callers'. Mutually recursive functions share a component.
func (g *CallGraph) SCCs() [][]*types.Func { return g.sccs }

// SameSCC reports whether two functions are mutually recursive.
func (g *CallGraph) SameSCC(a, b *types.Func) bool {
	ia, oka := g.sccIndex[a]
	ib, okb := g.sccIndex[b]
	return oka && okb && ia == ib
}

// condense runs Tarjan's SCC algorithm (iterative, so deep call chains
// cannot overflow the goroutine stack) over the declared functions. Tarjan
// emits components in reverse topological order of the condensation — i.e.
// a component is finished only after every component it calls into — which
// is exactly the bottom-up order the summary solver wants, so the emission
// order is kept as-is.
func (g *CallGraph) condense(order []*types.Func) {
	index := make(map[*types.Func]int, len(order))
	low := make(map[*types.Func]int, len(order))
	onStack := make(map[*types.Func]bool, len(order))
	var stack []*types.Func
	next := 0

	type frame struct {
		fn *types.Func
		ei int // next callee edge to visit
	}
	var visit func(root *types.Func)
	visit = func(root *types.Func) {
		frames := []frame{{fn: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			edges := g.callees[f.fn]
			if f.ei < len(edges) {
				w := edges[f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{fn: w})
				} else if onStack[w] {
					if index[w] < low[f.fn] {
						low[f.fn] = index[w]
					}
				}
				continue
			}
			// All edges explored: close the frame.
			if low[f.fn] == index[f.fn] {
				var comp []*types.Func
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.fn {
						break
					}
				}
				// Deterministic member order within the component.
				sort.Slice(comp, func(i, j int) bool { return comp[i].Pos() < comp[j].Pos() })
				for _, w := range comp {
					g.sccIndex[w] = len(g.sccs)
				}
				g.sccs = append(g.sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[f.fn] < low[parent.fn] {
					low[parent.fn] = low[f.fn]
				}
			}
		}
	}
	for _, fn := range order {
		if _, seen := index[fn]; !seen {
			visit(fn)
		}
	}
}

// paramsOf lists a function's parameter objects, receiver first.
func paramsOf(fn *types.Func) []*types.Var {
	sig := fn.Type().(*types.Signature)
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// identObj is the object an identifier uses or defines.
func identObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}
