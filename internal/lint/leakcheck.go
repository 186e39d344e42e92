package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// leakCheck pairs acquire/release resources across the whole module: EPC
// frames (epcman.AllocFrame → ReturnFrame/NotePage), prepared migration
// sessions (core.MigrateOutChannel → PreparedSource.Release|Commit|Cancel,
// core.MigrateInPrepare → PreparedTarget.Finish|Rebuild|Abort, enclave.BuildSigned
// → Runtime.Destroy), quiesced sources (core.Prepare → core.Cancel), and
// telemetry spans (Begin/Child/Fork → End/Fail). It flags any CFG path —
// error returns and panic edges included — on which an acquired resource
// neither escapes to a live owner nor reaches a release.
//
// The analysis is interprocedural: a bottom-up summary (SolveSummaries over
// the module call graph) records, per function parameter, whether the
// function may release the resource, store it into a live owner, or return
// it. A callee whose summary releases the argument credits the caller's
// path; a callee whose summary neither releases nor retains it leaves the
// resource held in the caller — that precision is what distinguishes this
// from "passing to any call silences the check".
//
// Error pairing encodes the Go convention that `v, err := acquire()` holds
// the resource only where err == nil: the paired error's nil-ness refines
// the fact along if-branches, so `if err != nil { return err }` directly
// after an acquire is not a leak. Reassigning the paired error clears the
// pairing and the resource is conservatively held on both branches.
//
// Test files are skipped — tests deliberately half-use resources to probe
// failure paths — and findings point at the acquire site, the one stable
// line every leaking path shares.
type leakCheck struct {
	cfg *Config

	prog      *Program
	graph     *CallGraph
	summaries map[*types.Func]leakSummary
	acq       map[string]acqSpec
	rel       map[string][]string // release fn FullName -> kinds released
}

func (*leakCheck) Name() string { return "leakcheck" }

func (*leakCheck) Doc() string {
	return `every acquired resource (EPC frame, prepared migration session, telemetry span) must reach a release or escape to a live owner on every path, counting releases performed by callees`
}

// acqSpec describes one acquire function: the resource kind it produces and
// which value holds it (arg < 0: result 0; arg >= 0: that call argument).
type acqSpec struct {
	kind string
	arg  int
}

// leakState is one held resource (or, in summary mode, one parameter
// token). States are immutable; aliasing is expressed by several fact keys
// sharing the same acquire position.
type leakState struct {
	kind   string       // resource kind; "" for summary-mode parameter tokens
	pos    token.Pos    // acquire site: identity for aliases and diagnostics
	param  int          // summary mode: parameter index; -1 in checker mode
	errObj types.Object // paired error variable; nil = held unconditionally
}

func (s *leakState) with(errObj types.Object) *leakState {
	return &leakState{kind: s.kind, pos: s.pos, param: s.param, errObj: errObj}
}

// leakFact maps each local/parameter object to the resource it holds.
type leakFact map[types.Object]*leakState

func (f leakFact) clone() leakFact {
	c := make(leakFact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

// leakSummary is one function's effect on its parameters (receiver first,
// then the signature parameters).
type leakSummary struct {
	// releases[i] is the set of resource kinds parameter i may release
	// (directly or through its own callees).
	releases []map[string]bool
	// retains[i]: parameter i may be stored into a live owner (struct
	// field, global, channel, another goroutine, unknown callee).
	retains []bool
	// returns[i]: parameter i's value may be returned directly.
	returns []bool
}

func (s leakSummary) releasesKind(i int, kind string) bool {
	return i >= 0 && i < len(s.releases) && s.releases[i][kind]
}
func (s leakSummary) releaseKinds(i int) map[string]bool {
	if i >= 0 && i < len(s.releases) {
		return s.releases[i]
	}
	return nil
}
func (s leakSummary) retainsParam(i int) bool { return i >= 0 && i < len(s.retains) && s.retains[i] }
func (s leakSummary) returnsParam(i int) bool { return i >= 0 && i < len(s.returns) && s.returns[i] }

func summariesEqual(a, b leakSummary) bool {
	if len(a.releases) != len(b.releases) {
		return false
	}
	for i := range a.releases {
		if len(a.releases[i]) != len(b.releases[i]) {
			return false
		}
		for k := range a.releases[i] {
			if !b.releases[i][k] {
				return false
			}
		}
	}
	if len(a.retains) != len(b.retains) || len(a.returns) != len(b.returns) {
		return false
	}
	for i := range a.retains {
		if a.retains[i] != b.retains[i] {
			return false
		}
	}
	for i := range a.returns {
		if a.returns[i] != b.returns[i] {
			return false
		}
	}
	return true
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

func (lc *leakCheck) Check(prog *Program, pkg *Package) []Diagnostic {
	if len(lc.cfg.Resources) == 0 {
		return nil
	}
	if lc.prog != prog {
		lc.prog = prog
		lc.acq = make(map[string]acqSpec)
		lc.rel = make(map[string][]string)
		for _, r := range lc.cfg.Resources {
			for _, a := range r.Acquires {
				name, arg := splitAcquire(a)
				lc.acq[name] = acqSpec{kind: r.Kind, arg: arg}
			}
			for _, rel := range r.Releases {
				lc.rel[rel] = append(lc.rel[rel], r.Kind)
			}
		}
		lc.graph = prog.CallGraph()
		lc.summaries = SolveSummaries[leakSummary](lc.graph, &leakSummaryAnalysis{lc: lc})
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if pkg.TestFile[f] {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, lc.checkBody(pkg, fd.Name.Name, fd.Body, nil)...)
		}
	}
	return diags
}

// splitAcquire parses "FullName" or "FullName@argN".
func splitAcquire(s string) (string, int) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '@' {
			arg := 0
			fmt.Sscanf(s[i+1:], "arg%d", &arg)
			return s[:i], arg
		}
	}
	return s, -1
}

// checkBody analyzes one function (or literal) body in checker mode and
// recursively analyzes the function literals it creates: a literal's
// captured resources escaped in the creator, and resources the literal
// acquires itself are its own to balance.
func (lc *leakCheck) checkBody(pkg *Package, name string, body *ast.BlockStmt, lit *ast.FuncLit) []Diagnostic {
	an := &leakAnalysis{lc: lc, pkg: pkg, entry: leakFact{}, reports: make(map[token.Pos]Diagnostic)}
	var cfg *CFG
	if lit != nil {
		cfg = BuildLitCFG(name, lit, pkg.Info)
	} else {
		cfg = buildCFG(name, body, pkg.Info)
	}
	in := Solve[leakFact](cfg, an)
	// Replay every reachable block against its converged entry fact with
	// reporting on: overwrite/discard findings come only from final facts.
	an.reporting = true
	Replay(cfg, an, in, func(ast.Node, leakFact) {})
	if exit, ok := in[cfg.Exit]; ok {
		f := exit.clone()
		an.applyDefers(cfg.Defers, f)
		seen := make(map[token.Pos]bool)
		for _, st := range f {
			if st.kind == "" || seen[st.pos] {
				continue
			}
			seen[st.pos] = true
			an.report(st.pos, fmt.Sprintf("%s acquired here may reach a return without being released: release it on every path (or its error path), or hand it to an owner", st.kind))
		}
	}
	var diags []Diagnostic
	for _, d := range an.reports {
		diags = append(diags, d)
	}
	// Function literals are their own frames: captured resources escaped in
	// the creator (scanExpr), and resources a literal acquires itself are
	// its own to balance. Analyze each outermost literal; deeper nesting is
	// handled by the recursion.
	var nested []*ast.FuncLit
	scan := body
	if lit != nil {
		scan = lit.Body
	}
	ast.Inspect(scan, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			nested = append(nested, fl)
			return false
		}
		return true
	})
	for _, fl := range nested {
		diags = append(diags, lc.checkBody(pkg, name+".func", nil, fl)...)
	}
	return diags
}

// leakSummaryAnalysis computes leakSummary bottom-up via SolveSummaries.
type leakSummaryAnalysis struct{ lc *leakCheck }

func (a *leakSummaryAnalysis) Bottom() leakSummary         { return leakSummary{} }
func (a *leakSummaryAnalysis) Equal(x, y leakSummary) bool { return summariesEqual(x, y) }

func (a *leakSummaryAnalysis) Compute(fd *FuncDecl, get func(*types.Func) leakSummary) leakSummary {
	params := paramsOf(fd.Fn)
	s := leakSummary{
		releases: make([]map[string]bool, len(params)),
		retains:  make([]bool, len(params)),
		returns:  make([]bool, len(params)),
	}
	entry := leakFact{}
	for i, p := range params {
		entry[p] = &leakState{param: i, pos: p.Pos()}
	}
	an := &leakAnalysis{
		lc: a.lc, pkg: fd.Pkg, entry: entry, get: get,
		onRelease: func(i int, kinds []string) {
			if s.releases[i] == nil {
				s.releases[i] = make(map[string]bool)
			}
			for _, k := range kinds {
				s.releases[i][k] = true
			}
		},
		onRetain: func(i int) { s.retains[i] = true },
		onReturn: func(i int) { s.returns[i] = true },
	}
	cfg := BuildCFG(fd.Decl, fd.Pkg.Info)
	in := Solve[leakFact](cfg, an)
	if exit, ok := in[cfg.Exit]; ok {
		an.applyDefers(cfg.Defers, exit.clone())
	}
	return s
}

// leakAnalysis is the shared transfer core: checker mode (reports non-nil)
// tracks configured acquires; summary mode (collectors non-nil) tracks
// parameter tokens and records their fate.
type leakAnalysis struct {
	lc    *leakCheck
	pkg   *Package
	entry leakFact
	get   func(*types.Func) leakSummary // summary mode: in-flight summaries

	reports map[token.Pos]Diagnostic // checker mode
	// reporting is false while Solve iterates to its fixpoint and true
	// during the final replay, so diagnostics are derived only from the
	// converged facts, never from an intermediate iteration.
	reporting bool
	onRelease func(param int, kinds []string)
	onRetain  func(param int)
	onReturn  func(param int)

	// pending accumulates acquires seen while scanning one statement's
	// expressions, consumed by the statement handler for lhs binding and
	// error pairing.
	pending []pendingAcq
	// lastBound lists the objects the current statement's acquires bound,
	// so the overwrite pass does not flag the fresh binding itself.
	lastBound []types.Object
}

type pendingAcq struct {
	call    *ast.CallExpr
	kind    string
	pos     token.Pos
	argObj  types.Object // arg-acquire: the object that now holds it
	isArg   bool         // acquire-by-argument ("FullName@argN" form)
	escaped bool         // result flowed straight out (return/store); untracked
}

func (a *leakAnalysis) report(pos token.Pos, msg string) {
	if a.reports == nil || !a.reporting {
		return
	}
	if _, dup := a.reports[pos]; dup {
		return
	}
	a.reports[pos] = Diagnostic{
		Pos:     a.lc.prog.Fset.Position(pos),
		Rule:    "leakcheck",
		Message: msg,
	}
}

// summary returns the callee's summary from whichever side is available.
func (a *leakAnalysis) summary(fn *types.Func) (leakSummary, bool) {
	if a.get != nil {
		if a.lc.graph.Decl(fn) == nil {
			return leakSummary{}, false
		}
		return a.get(fn), true
	}
	s, ok := a.lc.summaries[fn]
	return s, ok
}

// Analysis[leakFact] implementation: union meet (a resource held on any
// reaching path is held at the join, so a leak on one arm survives).

func (a *leakAnalysis) Entry() leakFact           { return a.entry.clone() }
func (a *leakAnalysis) Clone(f leakFact) leakFact { return f.clone() }

func (a *leakAnalysis) Meet(x, y leakFact) leakFact {
	out := x.clone()
	for k, sv := range y {
		cur, ok := out[k]
		if !ok {
			out[k] = sv
			continue
		}
		if cur == sv || (cur.pos == sv.pos && cur.errObj == sv.errObj) {
			continue
		}
		merged := &leakState{kind: cur.kind, pos: cur.pos, param: cur.param}
		if sv.pos < merged.pos {
			merged.pos = sv.pos
		}
		if cur.errObj == sv.errObj {
			merged.errObj = cur.errObj
		}
		out[k] = merged
	}
	return out
}

func (a *leakAnalysis) Equal(x, y leakFact) bool {
	if len(x) != len(y) {
		return false
	}
	for k, sx := range x {
		sy, ok := y[k]
		if !ok || sx.kind != sy.kind || sx.pos != sy.pos || sx.errObj != sy.errObj || sx.param != sy.param {
			return false
		}
	}
	return true
}

func (a *leakAnalysis) TransferCond(cond ast.Expr, branch bool, f leakFact) leakFact {
	errIdent, isNeq := nilCompare(a.pkg, cond)
	if errIdent == nil {
		return f
	}
	errNonNil := isNeq == branch
	for obj, st := range f {
		if st.errObj != errIdent {
			continue
		}
		if errNonNil {
			// The acquire failed on this path: nothing is held.
			delete(f, obj)
		} else {
			f[obj] = st.with(nil)
		}
	}
	return f
}

// nilCompare recognizes `x != nil` / `x == nil` over a plain identifier,
// returning its object and whether the operator is !=.
func nilCompare(pkg *Package, cond ast.Expr) (types.Object, bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return nil, false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(pkg, y) {
		// fallthrough with x
	} else if isNilIdent(pkg, x) {
		x = y
	} else {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	return pkg.Info.Uses[id], bin.Op == token.NEQ
}

func isNilIdent(pkg *Package, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pkg.Info.Uses[id].(*types.Nil)
	return isNil
}

// scan modes: how a held value found in the expression leaves the frame.
type scanMode int

const (
	scanNeutral scanMode = iota // plain read: stays held
	scanRetain                  // stored/sent/captured: escapes to an owner
	scanReturn                  // returned to the caller
)

func (a *leakAnalysis) Transfer(n ast.Node, f leakFact) leakFact {
	a.pending = a.pending[:0]
	switch x := n.(type) {
	case *ast.AssignStmt:
		a.assign(x, f)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			a.scanExpr(r, f, scanReturn)
		}
		a.consumePending(f, nil, nil)
	case *ast.ExprStmt:
		a.scanExpr(x.X, f, scanNeutral)
		a.consumePending(f, nil, nil)
	case *ast.SendStmt:
		a.scanExpr(x.Chan, f, scanNeutral)
		a.scanExpr(x.Value, f, scanRetain)
		a.consumePending(f, nil, nil)
	case *ast.GoStmt:
		a.goStmt(x, f)
	case *ast.DeferStmt:
		// The call runs at function exit (applyDefers); argument expressions
		// are simple in practice and intentionally not scanned here.
	case *ast.DeclStmt:
		a.declStmt(x, f)
	case *ast.RangeStmt:
		a.scanExpr(x.X, f, scanNeutral)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.LabeledStmt:
	case ast.Expr:
		// Block-terminating conditions and switch tags.
		a.scanExpr(x, f, scanNeutral)
		a.consumePending(f, nil, nil)
	default:
		if stmt, ok := n.(ast.Stmt); ok {
			ast.Inspect(stmt, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					a.scanExpr(call, f, scanNeutral)
					return false
				}
				return true
			})
			a.consumePending(f, nil, nil)
		}
	}
	return f
}

// assign handles acquisition binding, error pairing, aliasing, overwrite
// leaks, and stores into caller-visible places.
func (a *leakAnalysis) assign(x *ast.AssignStmt, f leakFact) {
	tuple := len(x.Rhs) == 1 && len(x.Lhs) > 1
	type aliasBind struct {
		lhs   *ast.Ident
		state *leakState
	}
	var aliases []aliasBind
	for i, rhs := range x.Rhs {
		mode := scanNeutral
		if !tuple && i < len(x.Lhs) && !localIdentTarget(a.pkg, x.Lhs[i]) {
			mode = scanRetain
		}
		if mode == scanNeutral {
			if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
				if st := f[identObj(a.pkg, id)]; st != nil {
					if lhsID, ok := x.Lhs[i].(*ast.Ident); ok && lhsID.Name != "_" {
						aliases = append(aliases, aliasBind{lhsID, st})
						continue
					}
				}
			}
		}
		a.scanExpr(rhs, f, mode)
	}

	// Error pairing: `v, err := acquire()` pairs v with err when the call's
	// last result is an error landing in a plain identifier. The
	// single-result form `err := quiesce(s)` pairs an arg-acquire the same
	// way.
	var errObj types.Object
	if tuple {
		if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok {
			if id, ok := x.Lhs[len(x.Lhs)-1].(*ast.Ident); ok && id.Name != "_" && lastResultIsError(a.pkg, call) {
				errObj = identObj(a.pkg, id)
			}
		}
	} else if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
		if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok && callIsErrorOnly(a.pkg, call) {
			if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				errObj = identObj(a.pkg, id)
			}
		}
	}

	bindTo := func(p pendingAcq) (types.Object, bool) {
		if p.argObj != nil {
			return p.argObj, false
		}
		var lhs ast.Expr
		if tuple {
			lhs = x.Lhs[0]
		} else {
			for i, rhs := range x.Rhs {
				if containsCall(rhs, p.call) && i < len(x.Lhs) {
					lhs = x.Lhs[i]
				}
			}
		}
		if lhs == nil {
			return nil, true
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				return nil, false // explicitly discarded
			}
			if localIdentTarget(a.pkg, lhs) {
				return identObj(a.pkg, id), false
			}
		}
		// Selector, index, or package-level target: the store hands the
		// resource to a live owner outside this frame.
		return nil, true
	}
	a.consumePending(f, bindTo, errObj)

	// Plain overwrites: assigning over a variable that still holds a
	// resource with no surviving alias loses the only reference. An
	// overwritten error variable also voids any acquire pairing that
	// referenced it — the resource is then held unconditionally.
	for _, lhs := range x.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := identObj(a.pkg, id)
		for k, stp := range f {
			if stp.errObj == obj && !a.boundHere(k) {
				f[k] = stp.with(nil)
			}
		}
		st := f[obj]
		if st == nil {
			continue
		}
		rebound := false
		for _, al := range aliases {
			if al.lhs == id {
				rebound = true
			}
		}
		if rebound || a.boundHere(obj) {
			continue
		}
		if st.kind != "" && !aliasSurvives(f, obj, st) {
			a.report(id.Pos(), fmt.Sprintf("%s still held by %s is overwritten here: the previous resource can no longer be released", st.kind, id.Name))
		}
		delete(f, obj)
	}
	for _, al := range aliases {
		if obj := identObj(a.pkg, al.lhs); obj != nil {
			f[obj] = al.state
		}
	}
}

// boundHere reports whether obj was just bound by this statement's own
// acquires (so the "overwrite" is the binding itself, not a loss).
func (a *leakAnalysis) boundHere(obj types.Object) bool {
	for _, p := range a.lastBound {
		if p == obj {
			return true
		}
	}
	return false
}

// aliasSurvives reports whether another fact key still references st's
// resource after obj is dropped.
func aliasSurvives(f leakFact, obj types.Object, st *leakState) bool {
	for k, v := range f {
		if k != obj && v.pos == st.pos && v.kind == st.kind {
			return true
		}
	}
	return false
}

func (a *leakAnalysis) declStmt(x *ast.DeclStmt, f leakFact) {
	gd, ok := x.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		for _, v := range vs.Values {
			a.scanExpr(v, f, scanNeutral)
		}
		var errObj types.Object
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok && lastResultIsError(a.pkg, call) {
				last := vs.Names[len(vs.Names)-1]
				if last.Name != "_" {
					errObj = a.pkg.Info.Defs[last]
				}
			}
		}
		names := vs.Names
		a.consumePending(f, func(p pendingAcq) (types.Object, bool) {
			if p.argObj != nil {
				return p.argObj, false
			}
			if len(names) > 0 && names[0].Name != "_" {
				return a.pkg.Info.Defs[names[0]], false
			}
			return nil, false
		}, errObj)
	}
}

func (a *leakAnalysis) goStmt(x *ast.GoStmt, f leakFact) {
	// Everything reaching the spawned goroutine escapes this frame: the
	// callee runs concurrently and owns what it was handed.
	if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
		for _, fv := range freeVars(a.pkg, lit) {
			a.escapeObj(fv, f, scanRetain)
		}
	} else {
		a.scanExpr(x.Call.Fun, f, scanNeutral)
	}
	for _, arg := range x.Call.Args {
		a.scanExpr(arg, f, scanRetain)
	}
	a.consumePending(f, nil, nil)
}

// consumePending binds the statement's acquires. bindTo resolves where the
// acquired value lands — (object, false) tracks it, (nil, true) means it
// escaped to an owner, (nil, false) means it was discarded; a nil bindTo
// uses arg-acquire binding only. errObj pairs the binding with an error.
func (a *leakAnalysis) consumePending(f leakFact, bindTo func(pendingAcq) (types.Object, bool), errObj types.Object) {
	a.lastBound = a.lastBound[:0]
	for _, p := range a.pending {
		if p.escaped {
			continue
		}
		var obj types.Object
		escaped := false
		if bindTo != nil {
			obj, escaped = bindTo(p)
		} else {
			obj = p.argObj
		}
		if obj == nil {
			if !escaped && !p.isArg {
				a.report(p.pos, fmt.Sprintf("result of this call carries a %s that is discarded: it can never be released", p.kind))
			}
			continue
		}
		if old := f[obj]; old != nil && old.kind != "" && old.pos != p.pos && !aliasSurvives(f, obj, old) {
			a.report(p.pos, fmt.Sprintf("%s still held by %s is overwritten by this acquire: the previous resource can no longer be released", old.kind, objName(obj)))
		}
		f[obj] = &leakState{kind: p.kind, pos: p.pos, param: -1, errObj: errObj}
		a.lastBound = append(a.lastBound, obj)
	}
	a.pending = a.pending[:0]
}

func objName(obj types.Object) string {
	if obj == nil {
		return "_"
	}
	return obj.Name()
}

// scanExpr walks one expression, applying call effects and escapes.
func (a *leakAnalysis) scanExpr(e ast.Expr, f leakFact, mode scanMode) {
	if e == nil {
		return
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if mode != scanNeutral {
			a.escapeObj(identObj(a.pkg, x), f, mode)
		}
	case *ast.UnaryExpr:
		a.scanExpr(x.X, f, mode)
	case *ast.StarExpr:
		a.scanExpr(x.X, f, mode)
	case *ast.SelectorExpr:
		// Reading a field does not move the base: scan the base neutrally.
		a.scanExpr(x.X, f, scanNeutral)
	case *ast.IndexExpr:
		a.scanExpr(x.X, f, scanNeutral)
		a.scanExpr(x.Index, f, scanNeutral)
	case *ast.SliceExpr:
		a.scanExpr(x.X, f, scanNeutral)
	case *ast.TypeAssertExpr:
		a.scanExpr(x.X, f, mode)
	case *ast.BinaryExpr:
		a.scanExpr(x.X, f, scanNeutral)
		a.scanExpr(x.Y, f, scanNeutral)
	case *ast.CompositeLit:
		// Building a value around a resource hands it to whatever owns the
		// composite — count it as retained even in neutral context, since
		// container aliasing is beyond this analysis.
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			a.scanExpr(el, f, scanRetain)
		}
	case *ast.FuncLit:
		for _, fv := range freeVars(a.pkg, x) {
			a.escapeObj(fv, f, scanRetain)
		}
	case *ast.CallExpr:
		a.applyCall(x, f, mode, false)
	}
}

// scanNested scans a call argument or receiver that is not a trackable
// operand. A resource acquired by a call nested in that position flows into
// the enclosing call, which owns it from here (runDump(root.Child(...))
// hands the span to runDump) — so such acquires are marked escaped.
func (a *leakAnalysis) scanNested(e ast.Expr, f leakFact) {
	mark := len(a.pending)
	a.scanExpr(e, f, scanNeutral)
	for i := mark; i < len(a.pending); i++ {
		a.pending[i].escaped = true
	}
}

// escapeObj removes obj's held state: the value reached a live owner (or
// the caller). Aliases of the same resource escape with it.
func (a *leakAnalysis) escapeObj(obj types.Object, f leakFact, mode scanMode) {
	st := f[obj]
	if st == nil {
		return
	}
	if st.kind == "" {
		if mode == scanReturn && a.onReturn != nil {
			a.onReturn(st.param)
		} else if a.onRetain != nil {
			a.onRetain(st.param)
		}
	}
	a.releaseState(f, st)
}

// releaseState drops every key referencing st's resource.
func (a *leakAnalysis) releaseState(f leakFact, st *leakState) {
	for k, v := range f {
		if v.pos == st.pos && v.kind == st.kind && v.param == st.param {
			delete(f, k)
		}
	}
}

// operand resolves a call argument or receiver to a tracked object: plain
// identifiers, optionally behind &, parens, or a type assertion. A type
// conversion deliberately breaks the chain — the converted copy is a new
// value (returning int(f) does not move the frame f out of the function).
func (a *leakAnalysis) operand(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return identObj(a.pkg, x)
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// applyCall is the heart of the interprocedural step: classify one call's
// effect on every held operand. deferCredit mode (applyDefers) only grants
// releases — a deferred unknown call must not silently absorb a leak.
func (a *leakAnalysis) applyCall(call *ast.CallExpr, f leakFact, mode scanMode, deferCredit bool) {
	fun := ast.Unparen(call.Fun)
	// Conversions pass the (retyped) value through untouched.
	if tv, ok := a.pkg.Info.Types[fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			a.scanExpr(arg, f, scanNeutral)
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, isBuiltin := a.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			esc := scanNeutral
			switch b.Name() {
			case "append", "panic":
				// append stashes the value in a slice whose aliases this
				// analysis cannot follow; panic hands it to recover().
				esc = scanRetain
			}
			for _, arg := range call.Args {
				a.scanExpr(arg, f, esc)
			}
			return
		}
	}

	fn := staticCallee(a.pkg, call)

	// Collect operands: receiver first (matching summary indexing), then args.
	type opnd struct {
		obj types.Object
		idx int
	}
	var ops []opnd
	idx := 0
	if sel, ok := fun.(*ast.SelectorExpr); ok && fn != nil && fn.Type().(*types.Signature).Recv() != nil {
		if obj := a.operand(sel.X); obj != nil {
			ops = append(ops, opnd{obj, 0})
		} else {
			a.scanNested(sel.X, f)
		}
		idx = 1
	} else if sel, ok := fun.(*ast.SelectorExpr); ok {
		a.scanNested(sel.X, f)
	}
	nparams := -1
	if fn != nil {
		nparams = idx + fn.Type().(*types.Signature).Params().Len()
	}
	for i, arg := range call.Args {
		obj := a.operand(arg)
		if obj != nil {
			pi := idx + i
			if nparams >= 0 && pi >= nparams {
				pi = nparams - 1 // variadic tail
			}
			ops = append(ops, opnd{obj, pi})
		} else {
			a.scanNested(arg, f)
		}
	}

	// Acquire?
	if fn != nil && !deferCredit {
		if spec, isAcq := a.lc.acq[fn.FullName()]; isAcq && a.reports != nil {
			p := pendingAcq{call: call, kind: spec.kind, pos: call.Lparen, escaped: mode != scanNeutral}
			if spec.arg >= 0 {
				p.isArg = true
				p.escaped = false
				if spec.arg < len(call.Args) {
					p.argObj = a.operand(call.Args[spec.arg])
				}
				if p.argObj == nil {
					// The acquired value lives in a structure (p.RT, a map
					// entry, ...) this analysis cannot track; its container
					// is the owner responsible for release.
					p.escaped = true
				}
			}
			a.pending = append(a.pending, p)
		}
	}

	// Release?
	if fn != nil {
		if kinds := a.lc.rel[fn.FullName()]; len(kinds) > 0 {
			for _, op := range ops {
				st := f[op.obj]
				if st == nil {
					continue
				}
				if st.kind == "" {
					if a.onRelease != nil {
						a.onRelease(st.param, kinds)
					}
					a.releaseState(f, st)
					continue
				}
				for _, k := range kinds {
					if k == st.kind {
						a.releaseState(f, st)
						break
					}
				}
			}
			return
		}
	}

	// Ordinary call: consult callee summaries for each held operand.
	for _, op := range ops {
		st := f[op.obj]
		if st == nil {
			continue
		}
		if fn == nil {
			// Indirect call through a function value: unknown callee.
			if !deferCredit {
				a.escapeObj(op.obj, f, scanRetain)
			}
			continue
		}
		cands := a.lc.graph.Callees(a.pkg, call)
		released, retained, unknown, returned := false, false, false, false
		var relKinds []string
		for _, cand := range cands {
			cand = cand.Origin()
			sum, ok := a.summary(cand)
			if !ok {
				unknown = true
				continue
			}
			if st.kind == "" {
				for k := range sum.releaseKinds(op.idx) {
					relKinds = append(relKinds, k)
				}
				if len(sum.releaseKinds(op.idx)) > 0 {
					released = true
				}
			} else if sum.releasesKind(op.idx, st.kind) {
				released = true
			}
			if sum.retainsParam(op.idx) {
				retained = true
			}
			if sum.returnsParam(op.idx) {
				returned = true
			}
		}
		switch {
		case released:
			if st.kind == "" && a.onRelease != nil {
				a.onRelease(st.param, relKinds)
			}
			a.releaseState(f, st)
		case deferCredit:
			// Only releases credit a deferred path.
		case unknown:
			a.escapeObj(op.obj, f, scanRetain)
		case retained:
			a.escapeObj(op.obj, f, scanRetain)
		case returned && mode != scanNeutral:
			// The callee passes the value through into our own result/store.
			a.escapeObj(op.obj, f, mode)
		}
		// Otherwise: the callee neither releases nor keeps it — still held.
	}
}

// applyDefers replays the deferred calls against the function-exit fact,
// crediting releases (direct, via callee summary, or inside a deferred
// closure — the `defer func() { sp.Fail(err) }()` idiom).
func (a *leakAnalysis) applyDefers(defers []*ast.CallExpr, f leakFact) {
	for i := len(defers) - 1; i >= 0; i-- {
		d := defers[i]
		if lit, ok := ast.Unparen(d.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); !isLit {
						a.applyCall(call, f, scanNeutral, true)
					}
				}
				return true
			})
			continue
		}
		a.applyCall(d, f, scanNeutral, true)
	}
	a.pending = a.pending[:0]
}

// localIdentTarget reports whether an assignment target is a plain local
// identifier (anything else stores into caller-visible structure).
func localIdentTarget(pkg *Package, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := identObj(pkg, id)
	return obj != nil && !pkgLevel(pkg, obj)
}

func identObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// containsCall reports whether expr contains call as a subexpression.
func containsCall(expr ast.Expr, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if n == call {
			found = true
		}
		return !found
	})
	return found
}

// callIsErrorOnly reports whether the call returns exactly one value of
// type error.
func callIsErrorOnly(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	if _, isTuple := tv.Type.(*types.Tuple); isTuple {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

// lastResultIsError reports whether the call's final result is an error.
func lastResultIsError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	tup, ok := tv.Type.(*types.Tuple)
	if !ok || tup.Len() == 0 {
		return false
	}
	last := tup.At(tup.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}
