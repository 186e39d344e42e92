package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// plainFlow is a taint analysis over go/types: the non-error results of
// approved decrypt functions (TaintSources) are decrypted enclave plaintext
// and must not flow into untrusted sinks (TaintSinks) — transport sends,
// outside-memory stores, log output, error strings — unless re-protected by
// an approved sanitizer (TaintSanitizers) first.
//
// Within a function taint is propagated flow-insensitively; across
// functions, call summaries are solved callee-first over the shared call
// graph (summary.go), so a wrapper chain of any depth converges: a
// function whose return value derives from a source is itself a source at
// its call sites, and a function that passes a parameter into a sink is
// itself a sink for that parameter (so thin wrappers like writeOut cannot
// launder plaintext). Taint propagates through assignments, field reads of
// tainted values, slicing/indexing, append/copy, conversions, composite
// literals, string concatenation and the fmt.Sprint family. Interface
// method calls dispatch to every module-defined implementation and merge
// their summaries (tainted if ANY implementation taints, sanitized only if
// ALL of them sanitize), so taint survives dynamic dispatch. Calls through
// plain function values still do not propagate — a documented soundness
// limit. Test files are exempt.
type plainFlow struct {
	cfg *Config

	prog *Program
	ctx  flowContext
}

func (*plainFlow) Name() string { return "plainflow" }

func (*plainFlow) Doc() string {
	return `decrypted plaintext (results of approved decrypt calls) must not reach untrusted sinks unless re-encrypted`
}

// Check solves the module's call summaries once per program, then reports
// every sink call in pkg whose argument carries source taint.
func (p *plainFlow) Check(prog *Program, pkg *Package) []Diagnostic {
	if len(p.cfg.TaintSources) == 0 || len(p.cfg.TaintSinks) == 0 {
		return nil
	}
	if p.prog != prog {
		p.prog = prog
		p.ctx = flowContext{
			sources:    toSet(p.cfg.TaintSources),
			sinks:      toSet(p.cfg.TaintSinks),
			sanitizers: toSet(p.cfg.TaintSanitizers),
			graph:      prog.CallGraph(),
			fset:       prog.Fset,
		}
		summaries := SolveSummaries[*flowSummary](p.ctx.graph, flowAnalysis{p.ctx})
		p.ctx.summary = func(fn *types.Func) *flowSummary { return summaries[fn] }
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if pkg.TestFile[f] {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				fa := &flowFunc{flowContext: p.ctx, pkg: pkg}
				fa.analyze(fd, fn, &diags)
			}
		}
	}
	return diags
}

// flowAnalysis is the SummaryAnalysis behind the call summaries. Bottom
// (nil) means "no summary yet" — a callee still at Bottom propagates
// nothing, like a function value.
type flowAnalysis struct{ ctx flowContext }

func (flowAnalysis) Bottom() *flowSummary { return nil }

func (flowAnalysis) Equal(a, b *flowSummary) bool {
	return a == b || (a != nil && b != nil && a.equal(b))
}

func (an flowAnalysis) Compute(fd *FuncDecl, get func(*types.Func) *flowSummary) *flowSummary {
	fa := &flowFunc{flowContext: an.ctx, pkg: fd.Pkg}
	fa.summary = get
	return fa.analyze(fd.Decl, fd.Fn, nil)
}

// taintMark is the per-value lattice element: src is the provenance of a
// source-derived taint ("" if none), params a bitmask of enclosing-function
// parameters whose taint would flow here.
type taintMark struct {
	src    string
	params uint64
}

func (t taintMark) empty() bool { return t.src == "" && t.params == 0 }

func (t taintMark) or(u taintMark) taintMark {
	if t.src == "" {
		t.src = u.src
	}
	t.params |= u.params
	return t
}

// flowSummary is the call summary of one function.
type flowSummary struct {
	// resultSrc[i] is the provenance of result i when it derives from a
	// taint source regardless of arguments ("" if clean).
	resultSrc []string
	// resultParams[i] is the parameter mask propagated to result i.
	resultParams []uint64
	// sinkParams is the mask of parameters that reach a sink inside the
	// function; sinkName names that sink for diagnostics.
	sinkParams uint64
	sinkName   string
}

func (s *flowSummary) equal(o *flowSummary) bool {
	if s.sinkParams != o.sinkParams || len(s.resultSrc) != len(o.resultSrc) {
		return false
	}
	for i := range s.resultSrc {
		if s.resultSrc[i] != o.resultSrc[i] || s.resultParams[i] != o.resultParams[i] {
			return false
		}
	}
	return true
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// flowContext is what every function's analysis shares: the configured
// identities, the call graph (for dispatch), and the callee summaries.
type flowContext struct {
	sources    map[string]bool
	sinks      map[string]bool
	sanitizers map[string]bool
	graph      *CallGraph
	fset       *token.FileSet
	// summary returns a declared callee's summary, nil when it has none
	// (yet): not a module function, or a peer of a recursive SCC in flight.
	summary func(*types.Func) *flowSummary
}

// flowFunc analyzes one function body.
type flowFunc struct {
	flowContext
	pkg *Package

	params  map[types.Object]int
	results map[types.Object]int
	tainted map[types.Object]taintMark
	changed bool
}

// analyze runs the local fixpoint and returns the function's summary. When
// report is non-nil, tainted sink arguments are appended to it.
func (fa *flowFunc) analyze(fd *ast.FuncDecl, fn *types.Func, report *[]Diagnostic) *flowSummary {
	fa.params = make(map[types.Object]int)
	fa.results = make(map[types.Object]int)
	fa.tainted = make(map[types.Object]taintMark)

	nresults := 0
	if fn != nil {
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			fa.params[sig.Params().At(i)] = i
		}
		nresults = sig.Results().Len()
		for i := 0; i < nresults; i++ {
			fa.results[sig.Results().At(i)] = i
		}
	}

	for pass := 0; pass < 12; pass++ {
		fa.changed = false
		fa.propagate(fd.Body)
		if !fa.changed {
			break
		}
	}

	sum := &flowSummary{
		resultSrc:    make([]string, nresults),
		resultParams: make([]uint64, nresults),
	}
	fa.summarize(fd.Body, sum, report)
	// Named results assigned a tainted value taint the corresponding index
	// even without an explicit return expression.
	for obj, idx := range fa.results {
		if mark, ok := fa.tainted[obj]; ok {
			fa.mergeResult(sum, idx, mark, obj.Type())
		}
	}
	return sum
}

// propagate walks every assignment-like construct, updating fa.tainted.
func (fa *flowFunc) propagate(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			fa.assignStmt(st)
		case *ast.GenDecl:
			for _, spec := range st.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						fa.taintLHS(name, fa.exprTaint(vs.Values[i]))
					}
				}
			}
		case *ast.RangeStmt:
			mark := fa.exprTaint(st.X)
			if !mark.empty() {
				if st.Key != nil {
					fa.taintLHS(st.Key, mark)
				}
				if st.Value != nil {
					fa.taintLHS(st.Value, mark)
				}
			}
		case *ast.CallExpr:
			// copy(dst, src) taints dst with src's mark.
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
				if _, isBuiltin := fa.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					fa.taintLHS(st.Args[0], fa.exprTaint(st.Args[1]))
				}
			}
		}
		return true
	})
}

func (fa *flowFunc) assignStmt(st *ast.AssignStmt) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Multi-value call: per-result marks.
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			marks := fa.callResultTaints(call, len(st.Lhs))
			for i, lhs := range st.Lhs {
				fa.taintLHS(lhs, marks[i])
			}
			return
		}
	}
	for i, lhs := range st.Lhs {
		if i < len(st.Rhs) {
			fa.taintLHS(lhs, fa.exprTaint(st.Rhs[i]))
		}
	}
}

// taintLHS merges mark into the object underlying an assignment target. A
// store through a field, index or dereference taints the base variable.
func (fa *flowFunc) taintLHS(lhs ast.Expr, mark taintMark) {
	if mark.empty() {
		return
	}
	obj := baseVar(fa.pkg, lhs)
	if obj == nil {
		return
	}
	old := fa.tainted[obj]
	merged := old.or(mark)
	if merged != old {
		fa.tainted[obj] = merged
		fa.changed = true
	}
}

// baseVar unwraps an expression to its leftmost identifier's variable, or
// nil when the base is not a simple variable.
func baseVar(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if v, ok := identObj(pkg, x).(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.KeyValueExpr:
			e = x.Value
		default:
			return nil
		}
	}
}

// exprTaint computes the mark of an expression.
func (fa *flowFunc) exprTaint(e ast.Expr) taintMark {
	switch x := e.(type) {
	case *ast.Ident:
		obj := identObj(fa.pkg, x)
		if obj == nil {
			return taintMark{}
		}
		mark := fa.tainted[obj]
		if idx, ok := fa.params[obj]; ok && idx < 64 {
			mark.params |= 1 << idx
		}
		return mark
	case *ast.ParenExpr:
		return fa.exprTaint(x.X)
	case *ast.StarExpr:
		return fa.exprTaint(x.X)
	case *ast.UnaryExpr:
		return fa.exprTaint(x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return taintMark{}
		}
		return fa.exprTaint(x.X).or(fa.exprTaint(x.Y))
	case *ast.IndexExpr:
		return fa.exprTaint(x.X)
	case *ast.SliceExpr:
		return fa.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		return fa.exprTaint(x.X)
	case *ast.KeyValueExpr:
		return fa.exprTaint(x.Value)
	case *ast.CompositeLit:
		var mark taintMark
		for _, el := range x.Elts {
			mark = mark.or(fa.exprTaint(el))
		}
		return mark
	case *ast.SelectorExpr:
		if sel, ok := fa.pkg.Info.Selections[x]; ok {
			if sel.Kind() == types.FieldVal {
				return fa.exprTaint(x.X)
			}
			return taintMark{} // method value
		}
		// Qualified identifier pkg.Var.
		if obj := fa.pkg.Info.Uses[x.Sel]; obj != nil {
			return fa.tainted[obj]
		}
		return taintMark{}
	case *ast.CallExpr:
		marks := fa.callResultTaints(x, 1)
		return marks[0]
	}
	return taintMark{}
}

// callResultTaints computes the marks of a call's results, folded to n
// slots (n==1 merges every non-error result; this is the single-value
// expression context).
func (fa *flowFunc) callResultTaints(call *ast.CallExpr, n int) []taintMark {
	marks := make([]taintMark, n)
	fun := ast.Unparen(call.Fun)

	// Conversions propagate the operand's taint.
	if tv, ok := fa.pkg.Info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			m := fa.exprTaint(call.Args[0])
			for i := range marks {
				marks[i] = m
			}
		}
		return marks
	}

	// Builtins: append propagates, everything else (len, cap, make, ...) is
	// clean. copy is handled as a statement.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := fa.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				var m taintMark
				for _, a := range call.Args {
					m = m.or(fa.exprTaint(a))
				}
				for i := range marks {
					marks[i] = m
				}
			}
			return marks
		}
	}

	fn := staticCallee(fa.pkg, call)
	if fn == nil {
		return marks // indirect call: no propagation (documented limit)
	}
	name := fn.FullName()
	if fa.sanitizers[name] {
		return marks
	}
	sig := fn.Type().(*types.Signature)
	if fa.sources[name] {
		for i := range marks {
			if resultTaintable(sig, i, n) {
				marks[i].src = "result of " + name
			}
		}
		return marks
	}
	if fmtSprintFamily[name] {
		var m taintMark
		for _, a := range call.Args {
			m = m.or(fa.exprTaint(a))
		}
		for i := range marks {
			marks[i] = m
		}
		return marks
	}
	if sum := fa.summary(fn); sum != nil {
		for i := range marks {
			marks[i] = fa.translateResult(sum, sig, call, i, n)
		}
		return marks
	}
	// Dynamic dispatch: any module implementation may be the callee, so
	// the result carries the union of every implementation's marks. A
	// sanitizing implementation contributes nothing, but it only keeps
	// the site clean if every sibling implementation is clean too.
	for _, impl := range fa.graph.ImplsOf(fn) {
		implName := impl.FullName()
		if fa.sanitizers[implName] {
			continue
		}
		isig := impl.Type().(*types.Signature)
		if fa.sources[implName] {
			for i := range marks {
				if resultTaintable(isig, i, n) && marks[i].src == "" {
					marks[i].src = "result of " + implName + " (via " + name + ")"
				}
			}
			continue
		}
		if sum := fa.summary(impl); sum != nil {
			for i := range marks {
				m := fa.translateResult(sum, isig, call, i, n)
				if m.src != "" {
					m.src += " (via " + name + ")"
				}
				marks[i] = marks[i].or(m)
			}
		}
	}
	return marks
}

// resultTaintable reports whether result i of a source call carries
// plaintext: error results never do. In a single-slot context (n==1 for a
// multi-result signature) any non-error result qualifies.
func resultTaintable(sig *types.Signature, i, n int) bool {
	res := sig.Results()
	if n == 1 && res.Len() > 1 {
		for j := 0; j < res.Len(); j++ {
			if !isErrorType(res.At(j).Type()) {
				return true
			}
		}
		return false
	}
	if i >= res.Len() {
		return false
	}
	return !isErrorType(res.At(i).Type())
}

func isErrorType(t types.Type) bool {
	return t.String() == "error"
}

// translateResult maps a callee summary's result-i mark into the caller's
// context, substituting argument marks for parameter bits.
func (fa *flowFunc) translateResult(sum *flowSummary, sig *types.Signature, call *ast.CallExpr, i, n int) taintMark {
	var mark taintMark
	merge := func(j int) {
		if j >= len(sum.resultSrc) {
			return
		}
		if sum.resultSrc[j] != "" {
			mark.src = sum.resultSrc[j]
		}
		mask := sum.resultParams[j]
		for p := 0; p < sig.Params().Len() && p < 64; p++ {
			if mask&(1<<p) != 0 && p < len(call.Args) {
				mark = mark.or(fa.exprTaint(call.Args[p]))
			}
		}
	}
	if n == 1 && len(sum.resultSrc) > 1 {
		for j := range sum.resultSrc {
			merge(j)
		}
		return mark
	}
	merge(i)
	return mark
}

// summarize inspects return statements and sink calls once taint has
// converged, filling the summary and (optionally) reporting findings.
func (fa *flowFunc) summarize(body *ast.BlockStmt, sum *flowSummary, report *[]Diagnostic) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for i, res := range st.Results {
				var t types.Type
				if tv, ok := fa.pkg.Info.Types[res]; ok {
					t = tv.Type
				}
				if len(st.Results) == 1 && len(sum.resultSrc) > 1 {
					// return f() — forwarding a multi-value call.
					if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
						marks := fa.callResultTaints(call, len(sum.resultSrc))
						for j, m := range marks {
							fa.mergeResult(sum, j, m, nil)
						}
						continue
					}
				}
				fa.mergeResult(sum, i, fa.exprTaint(res), t)
			}
		case *ast.CallExpr:
			fa.checkSink(st, sum, report)
		}
		return true
	})
}

func (fa *flowFunc) mergeResult(sum *flowSummary, i int, mark taintMark, t types.Type) {
	if i >= len(sum.resultSrc) || mark.empty() {
		return
	}
	if t != nil && isErrorType(t) {
		return
	}
	if mark.src != "" && sum.resultSrc[i] == "" {
		sum.resultSrc[i] = mark.src
	}
	sum.resultParams[i] |= mark.params
}

// checkSink inspects one call: if the callee is a configured sink (or has a
// sink-param summary), tainted arguments are reported and param-derived
// taint is folded into this function's own sink summary.
func (fa *flowFunc) checkSink(call *ast.CallExpr, sum *flowSummary, report *[]Diagnostic) {
	fn := staticCallee(fa.pkg, call)
	if fn == nil {
		return
	}
	name := fn.FullName()
	argSink := func(argIdx int, sinkName string) {
		mark := fa.exprTaint(call.Args[argIdx])
		if mark.src != "" && report != nil {
			*report = append(*report, Diagnostic{
				Pos:  fa.fset.Position(call.Args[argIdx].Pos()),
				Rule: "plainflow",
				Message: fmt.Sprintf("%s flows into untrusted sink %s without re-encryption",
					mark.src, sinkName),
			})
		}
		if mark.params != 0 {
			sum.sinkParams |= mark.params
			if sum.sinkName == "" {
				sum.sinkName = sinkName
			}
		}
	}
	if fa.sinks[name] {
		for i := range call.Args {
			argSink(i, name)
		}
		return
	}
	if callee := fa.summary(fn); callee != nil {
		if callee.sinkParams != 0 {
			sig := fn.Type().(*types.Signature)
			for p := 0; p < sig.Params().Len() && p < 64; p++ {
				if callee.sinkParams&(1<<p) != 0 && p < len(call.Args) {
					argSink(p, callee.sinkName+" (via "+name+")")
				}
			}
		}
		return
	}
	// Dynamic dispatch: a parameter sinks if ANY module implementation
	// sinks it. Union the implementations' masks first so each argument
	// reports at most once; the first sinking implementation (in the
	// index's deterministic order) names the diagnostic.
	var mask uint64
	sinkName := make(map[int]string)
	for _, impl := range fa.graph.ImplsOf(fn) {
		implName := impl.FullName()
		if fa.sinks[implName] {
			for p := range call.Args {
				if mask&(1<<p) == 0 {
					sinkName[p] = implName + " (via " + name + ")"
				}
				if p < 64 {
					mask |= 1 << p
				}
			}
			continue
		}
		if callee := fa.summary(impl); callee != nil && callee.sinkParams != 0 {
			isig := impl.Type().(*types.Signature)
			for p := 0; p < isig.Params().Len() && p < 64; p++ {
				if callee.sinkParams&(1<<p) != 0 && mask&(1<<p) == 0 {
					mask |= 1 << p
					sinkName[p] = callee.sinkName + " (via " + name + ")"
				}
			}
		}
	}
	for p := range call.Args {
		if p < 64 && mask&(1<<p) != 0 {
			argSink(p, sinkName[p])
		}
	}
}

// fmtSprintFamily are pure formatting helpers whose results inherit their
// arguments' taint.
var fmtSprintFamily = map[string]bool{
	"fmt.Sprint":   true,
	"fmt.Sprintf":  true,
	"fmt.Sprintln": true,
	"bytes.Clone":  true,
	"bytes.Join":   true,
	"strings.Join": true,
}
