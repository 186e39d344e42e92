package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Interprocedural aliasing support for the immutable rule, built on the
// shared call graph (callgraph.go) and bottom-up summary solver
// (summary.go):
//
//   - aliasRetSummary records that a function's single result is a pointer
//     to an annotated field of one of its operands (`func idPtr(b *Box)
//     *uint64 { return &b.ID }`), transitively through same-module
//     wrappers. Callers use it to classify writes through the returned
//     pointer (`*idPtr(b) = v`, or `p := idPtr(b); *p = v`) as writes to
//     the field itself.
//
//   - publishSummary records which operands (receiver first) a function
//     may publish: store into a package-level variable, send on a channel,
//     hand to a goroutine, pass to another package or through an indirect
//     call, or pass to a same-module callee that publishes them. The
//     escape analysis consults it at same-package call sites, which
//     without summaries it had to treat as non-escaping.
//
// Both domains are finite-height and Compute is monotone in the callee
// summaries, as SolveSummaries requires.

// aliasTarget is what an alias-bound local points at: the annotated
// field's declaration position and the variable whose field it is.
type aliasTarget struct {
	fld  token.Pos
	base types.Object
}

// aliasRetSummary: when ok, the function's single result aliases the
// annotated field fld of operand param (receiver-first index).
type aliasRetSummary struct {
	ok    bool
	param int
	fld   token.Pos
}

type aliasRetAnalysis struct {
	fields map[token.Pos]immutField
}

func (aliasRetAnalysis) Bottom() aliasRetSummary         { return aliasRetSummary{param: -1} }
func (aliasRetAnalysis) Equal(a, b aliasRetSummary) bool { return a == b }

func (an aliasRetAnalysis) Compute(fd *FuncDecl, get func(*types.Func) aliasRetSummary) aliasRetSummary {
	sig := fd.Fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return an.Bottom()
	}
	params := paramsOf(fd.Fn)
	out := an.Bottom()
	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are not this function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 || out.ok {
			return !out.ok
		}
		e := ast.Unparen(ret.Results[0])
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if fld, base, ok := annotatedFieldSel(fd.Pkg, an.fields, u.X); ok {
				if i := operandParamIndex(params, base); i >= 0 {
					out = aliasRetSummary{ok: true, param: i, fld: fld}
				}
			}
			return true
		}
		// A wrapper returning a callee's alias result aliases the same
		// field, remapped through the argument list.
		if call, ok := e.(*ast.CallExpr); ok {
			if fn := staticCallee(fd.Pkg, call); fn != nil {
				if cs := get(fn); cs.ok {
					ops := callOperandExprs(fd.Pkg, call, fn)
					if cs.param < len(ops) && ops[cs.param] != nil {
						if i := operandParamIndex(params, baseVar(fd.Pkg, ops[cs.param])); i >= 0 {
							out = aliasRetSummary{ok: true, param: i, fld: cs.fld}
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// publishSummary: params[i] (receiver-first) means the function may
// publish operand i outside the caller's frame.
type publishSummary struct {
	ok     bool
	params []bool
}

type publishAnalysis struct {
	graph *CallGraph
}

func (publishAnalysis) Bottom() publishSummary { return publishSummary{} }

func (publishAnalysis) Equal(a, b publishSummary) bool {
	if a.ok != b.ok || len(a.params) != len(b.params) {
		return false
	}
	for i := range a.params {
		if a.params[i] != b.params[i] {
			return false
		}
	}
	return true
}

func (an publishAnalysis) Compute(fd *FuncDecl, get func(*types.Func) publishSummary) publishSummary {
	pkg := fd.Pkg
	params := paramsOf(fd.Fn)
	idx := make(map[types.Object]int, len(params))
	for i, p := range params {
		idx[p] = i
	}
	out := publishSummary{ok: true, params: make([]bool, len(params))}
	mark := func(obj types.Object) {
		if i, ok := idx[obj]; ok {
			out.params[i] = true
		}
	}
	// markUses publishes every parameter referenced anywhere in e —
	// deliberately coarse, used where the whole expression travels.
	markUses := func(e ast.Node) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mark(identObj(pkg, id))
			}
			return true
		})
	}
	markCall := func(call *ast.CallExpr) {
		fun := ast.Unparen(call.Fun)
		if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
			return // conversion: the copy stays in-frame
		}
		if id, ok := fun.(*ast.Ident); ok {
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return
			}
		}
		fn := staticCallee(pkg, call)
		if fn == nil || fn.Pkg() != pkg.Types || an.graph.Decl(fn) == nil {
			// Indirect, cross-package, or bodiless callee: assume it
			// retains everything it is handed.
			for _, arg := range call.Args {
				mark(baseVar(pkg, arg))
			}
			return
		}
		cs := get(fn)
		ops := callOperandExprs(pkg, call, fn)
		for i, e := range ops {
			if e == nil {
				continue
			}
			ci := i
			if len(cs.params) > 0 && ci >= len(cs.params) {
				ci = len(cs.params) - 1 // variadic tail
			}
			if cs.ok && ci < len(cs.params) && cs.params[ci] {
				mark(baseVar(pkg, e))
			}
		}
	}
	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			// Everything a goroutine references is concurrent with the
			// caller, captures and arguments alike.
			markUses(x.Call)
			return false
		case *ast.SendStmt:
			markUses(x.Value)
		case *ast.AssignStmt:
			publishes := false
			for _, lhs := range x.Lhs {
				if base := baseVar(pkg, lhs); base != nil && pkgLevel(pkg, base) {
					publishes = true
				}
			}
			if publishes {
				for _, rhs := range x.Rhs {
					markUses(rhs)
				}
			}
		case *ast.CallExpr:
			markCall(x)
		}
		return true
	})
	return out
}

// annotatedFieldSel matches `x.f` (behind parens) where f carries the
// immutable annotation, returning the field's declaration position and
// the base variable of x.
func annotatedFieldSel(pkg *Package, fields map[token.Pos]immutField, e ast.Expr) (token.Pos, types.Object, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return token.NoPos, nil, false
	}
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return token.NoPos, nil, false
	}
	if _, annotated := fields[obj.Pos()]; !annotated {
		return token.NoPos, nil, false
	}
	return obj.Pos(), baseVar(pkg, sel.X), true
}

// callOperandExprs lists a call's operand expressions receiver-first,
// matching the summary indexing of paramsOf: for a method call the
// receiver expression is operand 0 and arguments follow; for a plain call
// the arguments start at 0.
func callOperandExprs(pkg *Package, call *ast.CallExpr, fn *types.Func) []ast.Expr {
	var ops []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fn.Type().(*types.Signature).Recv() != nil {
		ops = append(ops, sel.X)
	}
	for _, arg := range call.Args {
		ops = append(ops, arg)
	}
	return ops
}

// operandParamIndex maps a variable to its receiver-first parameter
// index, or -1 when it is not one of params.
func operandParamIndex(params []*types.Var, obj types.Object) int {
	for i, p := range params {
		if obj != nil && obj == types.Object(p) {
			return i
		}
	}
	return -1
}

// collectAliasBinds finds locals bound to a pointer into an annotated
// field — directly (`p := &b.ID`) or through a callee whose summary
// returns such an alias (`p := idPtr(b)`) — anywhere in the body,
// function literals included (the binding frame is shared).
func collectAliasBinds(pkg *Package, fields map[token.Pos]immutField, aliasRet map[*types.Func]aliasRetSummary, body *ast.BlockStmt) map[types.Object]aliasTarget {
	binds := make(map[types.Object]aliasTarget)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(pkg, id)
			if obj == nil {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				if fld, base, ok := annotatedFieldSel(pkg, fields, u.X); ok && base != nil {
					binds[obj] = aliasTarget{fld: fld, base: base}
				}
				continue
			}
			if call, ok := rhs.(*ast.CallExpr); ok {
				if fld, base, ok := aliasedByCall(pkg, aliasRet, call); ok && base != nil {
					binds[obj] = aliasTarget{fld: fld, base: base}
				}
			}
		}
		return true
	})
	return binds
}

// aliasedByCall reports whether a call returns an alias of an annotated
// field per the callee's summary, and of which variable's field.
func aliasedByCall(pkg *Package, aliasRet map[*types.Func]aliasRetSummary, call *ast.CallExpr) (token.Pos, types.Object, bool) {
	fn := staticCallee(pkg, call)
	if fn == nil {
		return token.NoPos, nil, false
	}
	cs, ok := aliasRet[fn]
	if !ok || !cs.ok {
		return token.NoPos, nil, false
	}
	ops := callOperandExprs(pkg, call, fn)
	if cs.param >= len(ops) || ops[cs.param] == nil {
		return token.NoPos, nil, false
	}
	return cs.fld, baseVar(pkg, ops[cs.param]), true
}
