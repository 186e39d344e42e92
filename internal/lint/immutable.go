package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// immutable machine-checks "// immutable after construction" field
// annotations: an annotated field may be initialized by composite literals
// anywhere, and written by assignment only inside its declaring package, in
// a function that constructs the owning type (a result of type T or *T),
// and only BEFORE the new value escapes the constructing frame.
//
// Escape is tracked flow-sensitively on the CFG/dataflow engine as a
// may-analysis whose fact is the set of locals that may have been
// published: launched into a goroutine (`go` statement, directly or as a
// captured variable of the literal), sent on a channel, passed to another
// package or through an indirect call, or stored into a caller-visible
// location (a parameter's or global's field). Once a value may be visible
// to concurrent or foreign code, further writes to its immutable fields
// are findings even inside the constructor — the annotation's whole point
// is that observers need no lock.
//
// Two interprocedural upgrades run over the shared call graph's summary
// solver (aliasing.go): writes through an alias of an annotated field are
// classified as writes to the field itself — whether the alias is taken
// locally (`p := &b.f; *p = v`) or returned by a same-module helper
// (`*idPtr(b) = v`) — and same-package calls, which a purely local
// analysis must treat as non-escaping, consult the callee's publish
// summary, so a helper that stores its argument into a package-level
// variable, a channel, or a goroutine publishes it at the call site too
// (receivers included: a method call escapes the new value exactly when
// the method publishes its receiver).
//
// Deliberate limit, matching the annotation's field granularity: mutation
// of the field by a same-package callee is attributed to the callee (it
// is reported there), never to the call site.
type immutable struct {
	prog     *Program
	fields   map[token.Pos]immutField
	aliasRet map[*types.Func]aliasRetSummary
	pub      map[*types.Func]publishSummary
}

func (*immutable) Name() string { return "immutable" }

func (*immutable) Doc() string {
	return `fields annotated "// immutable after construction" may only be written by constructors of the declaring package, before the value escapes`
}

// immutField is one annotated struct field.
type immutField struct {
	name  string
	owner *types.TypeName // the named struct type declaring the field
}

const immutMarker = "immutable after construction"

func (im *immutable) Check(prog *Program, pkg *Package) []Diagnostic {
	if im.prog != prog {
		im.prog = prog
		im.fields = collectImmutableFields(prog)
		im.aliasRet = nil
		im.pub = nil
		if len(im.fields) > 0 {
			g := prog.CallGraph()
			im.aliasRet = SolveSummaries[aliasRetSummary](g, aliasRetAnalysis{fields: im.fields})
			im.pub = SolveSummaries[publishSummary](g, publishAnalysis{graph: g})
		}
	}
	if len(im.fields) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, im.checkFunc(prog, pkg, fd)...)
		}
	}
	return diags
}

// collectImmutableFields maps every annotated field in the module to its
// owner, keyed by the field identifier's declaration position (positions
// survive generic instantiation; see collectGuardedFields). Fields of
// anonymous structs are skipped — without a named owner there is no
// constructor to privilege.
func collectImmutableFields(prog *Program) map[token.Pos]immutField {
	fields := make(map[token.Pos]immutField)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					annotated := false
					for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
						if cg != nil && strings.Contains(cg.Text(), immutMarker) {
							annotated = true
						}
					}
					if !annotated {
						continue
					}
					for _, name := range field.Names {
						fields[name.Pos()] = immutField{name: name.Name, owner: tn}
					}
				}
				return true
			})
		}
	}
	return fields
}

// checkFunc solves the escape analysis over one function and reports every
// disallowed write to an annotated field.
func (im *immutable) checkFunc(prog *Program, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	an := &escapeAnalysis{pkg: pkg, entry: escapeFact{}, pub: im.pub, graph: prog.CallGraph()}
	// Parameters, the receiver, and named results arriving from the caller
	// are caller-visible from the start; only values the function itself
	// creates begin unescaped.
	if fn != nil {
		sig := fn.Type().(*types.Signature)
		if r := sig.Recv(); r != nil {
			an.entry[r] = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			an.entry[sig.Params().At(i)] = true
		}
	}
	an.litBinds = collectLitBinds(pkg, fd.Body)
	an.aliasBinds = collectAliasBinds(pkg, im.fields, im.aliasRet, fd.Body)
	constructs := constructedTypes(fn)
	cfg := BuildCFG(fd, pkg.Info)
	return im.checkEscapeCFG(prog, pkg, cfg, an, constructs, fd.Name.Name)
}

// checkEscapeCFG walks one CFG's facts, reporting annotated-field writes
// that are cross-package, outside a constructor, or after escape. Function
// literals are checked recursively: a `go` literal's free variables have
// escaped (the body runs concurrently with the constructor's caller); any
// other literal inherits the escape set at its creation point.
func (im *immutable) checkEscapeCFG(prog *Program, pkg *Package, cfg *CFG, an *escapeAnalysis, constructs map[*types.TypeName]bool, funcName string) []Diagnostic {
	var diags []Diagnostic
	type litWork struct {
		lit   *ast.FuncLit
		entry escapeFact
	}
	var lits []litWork

	Replay(cfg, an, Solve[escapeFact](cfg, an), func(n ast.Node, f escapeFact) {
		an.scanNode(n, f.clone(),
			func(lhs ast.Expr, escaped escapeFact) {
				d := im.classifyWrite(prog, pkg, lhs, an, escaped, constructs, funcName)
				if d != nil {
					diags = append(diags, *d)
				}
			},
			func(lit *ast.FuncLit, esc escapeFact, inGo bool) {
				e := esc.clone()
				if inGo {
					for _, obj := range freeVars(pkg, lit) {
						e[obj] = true
					}
				}
				lits = append(lits, litWork{lit, e})
			})
	})

	for _, lw := range lits {
		litAn := &escapeAnalysis{pkg: pkg, entry: lw.entry, litBinds: an.litBinds,
			aliasBinds: an.aliasBinds, pub: an.pub, graph: an.graph}
		litCFG := BuildLitCFG(funcName+".func", lw.lit, pkg.Info)
		diags = append(diags, im.checkEscapeCFG(prog, pkg, litCFG, litAn, constructs, funcName)...)
	}
	return diags
}

// classifyWrite decides whether one assignment target violates an
// "immutable after construction" annotation. The written field is the
// deepest selector of the target, looking through indexing and
// dereference: `x.f = v`, `x.f[i] = v` and `*x.f = v` all write f, while
// `x.f.g = v` writes g (per-field granularity). A dereferenced alias of
// an annotated field — a local bound to `&x.f` or to a helper returning
// one, or the helper call itself (`*idPtr(x) = v`) — is the same write,
// attributed to the aliased variable.
func (im *immutable) classifyWrite(prog *Program, pkg *Package, lhs ast.Expr, an *escapeAnalysis, escaped escapeFact, constructs map[*types.TypeName]bool, funcName string) *Diagnostic {
	e := ast.Unparen(lhs)
	derefed := false
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			derefed = true
			continue
		}
		break
	}
	var (
		fldPos token.Pos
		base   types.Object
		pos    token.Pos
	)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		obj, ok := pkg.Info.Uses[x.Sel].(*types.Var)
		if !ok {
			return nil
		}
		if _, ok := im.fields[obj.Pos()]; !ok {
			return nil
		}
		fldPos, base, pos = obj.Pos(), baseVar(pkg, x.X), x.Sel.Pos()
	case *ast.Ident:
		if !derefed {
			return nil
		}
		tgt, ok := an.aliasBinds[identObj(pkg, x)]
		if !ok {
			return nil
		}
		fldPos, base, pos = tgt.fld, tgt.base, x.Pos()
	case *ast.CallExpr:
		if !derefed {
			return nil
		}
		fp, b, ok := aliasedByCall(pkg, im.aliasRet, x)
		if !ok {
			return nil
		}
		fldPos, base, pos = fp, b, x.Lparen
	default:
		return nil
	}
	fld := im.fields[fldPos]
	diag := func(format string, args ...any) *Diagnostic {
		return &Diagnostic{
			Pos:     prog.Fset.Position(pos),
			Rule:    "immutable",
			Message: fmt.Sprintf(format, args...),
		}
	}
	tname := fld.owner.Name()
	if fld.owner.Pkg() != pkg.Types {
		return diag("field %s.%s is immutable after construction, but is written outside its declaring package", tname, fld.name)
	}
	if !constructs[fld.owner] {
		return diag("field %s.%s is immutable after construction, but %s is not a constructor of %s (writes are only allowed in functions returning %s or *%s, or via composite literals)",
			tname, fld.name, funcName, tname, tname, tname)
	}
	if base == nil || escaped[base] || pkgLevel(pkg, base) {
		return diag("field %s.%s is written after the new %s may have escaped %s (published to another goroutine, package, or caller-visible location)",
			tname, fld.name, tname, funcName)
	}
	return nil
}

// constructedTypes returns the named types a function constructs, judged by
// its result list: a result of type T or *T (through aliases and generic
// instantiation) makes the function a constructor of T.
func constructedTypes(fn *types.Func) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	if fn == nil {
		return out
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		t := types.Unalias(sig.Results().At(i).Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if named, ok := t.(*types.Named); ok {
			out[named.Origin().Obj()] = true
		}
	}
	return out
}

// escapeFact is the may-analysis fact: the set of objects (locals, plus
// the pre-escaped parameters) whose value may be visible outside this
// frame at the current point.
type escapeFact map[types.Object]bool

func (f escapeFact) clone() escapeFact {
	c := make(escapeFact, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

// escapeAnalysis implements Analysis[escapeFact] with union meet.
type escapeAnalysis struct {
	pkg   *Package
	entry escapeFact
	// litBinds maps a local's declaration position to the free variables of
	// function literals bound to it, so publishing the local publishes what
	// its closures captured.
	litBinds map[token.Pos][]types.Object
	// aliasBinds maps locals holding a pointer into an annotated field to
	// the aliased variable, so publishing the pointer publishes it too.
	aliasBinds map[types.Object]aliasTarget
	// pub holds the module's publish summaries; same-package call sites
	// consult them instead of assuming their operands stay in-frame.
	pub   map[*types.Func]publishSummary
	graph *CallGraph
}

func (a *escapeAnalysis) Entry() escapeFact             { return a.entry.clone() }
func (a *escapeAnalysis) Clone(f escapeFact) escapeFact { return f.clone() }

func (a *escapeAnalysis) Meet(x, y escapeFact) escapeFact {
	out := x.clone()
	for k := range y {
		out[k] = true
	}
	return out
}

func (a *escapeAnalysis) Equal(x, y escapeFact) bool {
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if !y[k] {
			return false
		}
	}
	return true
}

func (a *escapeAnalysis) Transfer(n ast.Node, f escapeFact) escapeFact {
	a.scanNode(n, f, nil, nil)
	return f
}

func (a *escapeAnalysis) TransferCond(cond ast.Expr, branch bool, f escapeFact) escapeFact {
	return f // no branch refinement for escape
}

// scanNode applies one CFG node's escape effects to f in evaluation order.
// Function literal subtrees are not entered (onLit collects them with the
// fact at creation); onWrite reports assignment targets.
func (a *escapeAnalysis) scanNode(n ast.Node, f escapeFact, onWrite func(ast.Expr, escapeFact), onLit func(*ast.FuncLit, escapeFact, bool)) {
	if n == nil {
		return
	}
	inGo := false
	if _, ok := n.(*ast.GoStmt); ok {
		inGo = true
	}
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if onLit != nil {
				onLit(x, f, inGo)
			}
			return false
		case *ast.RangeStmt:
			// A range header node carries the whole loop as children; only
			// the operand and iteration vars belong to this block.
			ast.Inspect(x.X, walk)
			return false
		case *ast.AssignStmt:
			for _, rhs := range x.Rhs {
				ast.Inspect(rhs, walk)
			}
			for _, lhs := range x.Lhs {
				if onWrite != nil {
					onWrite(lhs, f)
				}
				// Storing into caller-visible structure publishes the value.
				if base := baseVar(a.pkg, lhs); base == nil || f[base] || pkgLevel(a.pkg, base) {
					for _, rhs := range x.Rhs {
						a.escapeExpr(rhs, f)
					}
				}
			}
			return false
		case *ast.IncDecStmt:
			if onWrite != nil {
				onWrite(x.X, f)
			}
			return true
		case *ast.SendStmt:
			ast.Inspect(x.Chan, walk)
			ast.Inspect(x.Value, walk)
			a.escapeExpr(x.Value, f)
			return false
		case *ast.CallExpr:
			a.escapeCall(x, inGo, f)
			return true
		}
		return true
	}
	ast.Inspect(n, walk)
}

// escapeCall applies one call's publishing effect: every argument of a
// call that callEscapesArgs (cross-package, indirect, in a `go`
// statement) escapes wholesale; a static same-package call escapes
// exactly the operands — receiver included — that the callee's publish
// summary says it may publish.
func (a *escapeAnalysis) escapeCall(call *ast.CallExpr, inGo bool, f escapeFact) {
	if a.callEscapesArgs(call, inGo) {
		for _, arg := range call.Args {
			a.escapeExpr(arg, f)
		}
		return
	}
	fn := staticCallee(a.pkg, call)
	if fn == nil || a.pub == nil {
		return
	}
	ps, ok := a.pub[fn]
	if !ok || !ps.ok {
		return
	}
	ops := callOperandExprs(a.pkg, call, fn)
	for i, e := range ops {
		ci := i
		if len(ps.params) > 0 && ci >= len(ps.params) {
			ci = len(ps.params) - 1 // variadic tail
		}
		if ci < len(ps.params) && ps.params[ci] && e != nil {
			a.escapeExpr(e, f)
		}
	}
}

// callEscapesArgs reports whether a call may retain or publish its
// arguments: anything except a builtin, a conversion, or a static call to
// a function of the same package. A `go` statement's call always escapes
// its arguments — they travel to another goroutine regardless of callee.
func (a *escapeAnalysis) callEscapesArgs(call *ast.CallExpr, inGo bool) bool {
	if inGo {
		return true
	}
	fun := ast.Unparen(call.Fun)
	if tv, ok := a.pkg.Info.Types[fun]; ok && tv.IsType() {
		return false // conversion
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := a.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return false
		}
	}
	fn := staticCallee(a.pkg, call)
	if fn == nil {
		return true // indirect call: unknown callee
	}
	return fn.Pkg() != a.pkg.Types
}

// escapeExpr marks the objects published by using e as an escaping value:
// the base variable of the expression, any closure free variables bound to
// that variable, and — when e is itself a function literal — the literal's
// free variables.
func (a *escapeAnalysis) escapeExpr(e ast.Expr, f escapeFact) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if lit, ok := e.(*ast.FuncLit); ok {
		for _, obj := range freeVars(a.pkg, lit) {
			f[obj] = true
		}
		return
	}
	if lit, ok := e.(*ast.CompositeLit); ok {
		for _, el := range lit.Elts {
			a.escapeExpr(el, f)
		}
		return
	}
	base := baseVar(a.pkg, e)
	if base == nil {
		return
	}
	f[base] = true
	for _, obj := range a.litBinds[base.Pos()] {
		f[obj] = true
	}
	// Publishing a pointer into an annotated field publishes its owner.
	if tgt, ok := a.aliasBinds[base]; ok && tgt.base != nil {
		f[tgt.base] = true
	}
}

// pkgLevel reports whether obj is a package-level variable: its value is
// visible to every goroutine and package-level accessor from the start.
func pkgLevel(pkg *Package, obj types.Object) bool {
	return obj != nil && pkg.Types != nil && obj.Parent() == pkg.Types.Scope()
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

// freeVars returns the variables a function literal captures from its
// enclosing function: objects used inside the literal but declared outside
// its extent.
func freeVars(pkg *Package, lit *ast.FuncLit) []types.Object {
	seen := make(map[types.Object]bool)
	var out []types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		if !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

// collectLitBinds maps each local bound to a function literal (`cleanup :=
// func() {...}`) to that literal's free variables: if the local later
// escapes, so does everything its closure captured.
func collectLitBinds(pkg *Package, body *ast.BlockStmt) map[token.Pos][]types.Object {
	binds := make(map[token.Pos][]types.Object)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit)
			if !ok {
				continue
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := identObj(pkg, id)
			if obj == nil {
				continue
			}
			binds[obj.Pos()] = append(binds[obj.Pos()], freeVars(pkg, lit)...)
		}
		return true
	})
	return binds
}
