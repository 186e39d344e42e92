package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// wireProto checks the migration wire protocol for completeness:
//
//  1. every constant of a configured wire-enum type must be both produced
//     (used as a value: composite literal field, send argument, ...) and
//     consumed (matched in a case clause, compared with ==/!=, or passed to
//     an expected-kind helper such as recvKind) somewhere in the module;
//  2. a switch over a wire enum with no default clause must cover every
//     constant of the type;
//  3. every configured wire struct must have a codec round-trip test: some
//     in-package Test*/Fuzz* function that mentions the type and calls both
//     its encode and its decode function.
//
// Production/consumption is counted in non-test files only (a test that
// fabricates a message does not make the protocol handle it); the
// round-trip requirement looks at in-package test files.
type wireProto struct {
	cfg *Config

	prog  *Program
	diags map[*Package][]Diagnostic
}

func (*wireProto) Name() string { return "wireproto" }

func (*wireProto) Doc() string {
	return `wire-enum constants must be produced and consumed, enum switches exhaustive, wire structs round-trip tested`
}

func (w *wireProto) Check(prog *Program, pkg *Package) []Diagnostic {
	if len(w.cfg.WireEnums) == 0 && len(w.cfg.WireStructs) == 0 {
		return nil
	}
	if w.prog != prog {
		w.prog = prog
		w.diags = w.analyzeModule(prog)
	}
	return w.diags[pkg]
}

// enumInfo is the module-wide state of one wire enum.
type enumInfo struct {
	name      string // configured "importpath.TypeName"
	typ       *types.Named
	constants []*types.Const // declaration order
	declPos   map[*types.Const]token.Pos
	produced  map[*types.Const]bool
	consumed  map[*types.Const]bool
}

func (w *wireProto) analyzeModule(prog *Program) map[*Package][]Diagnostic {
	diags := make(map[*Package][]Diagnostic)
	fileOwner := make(map[string]*Package)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			fileOwner[prog.Fset.Position(f.Pos()).Filename] = pkg
		}
	}
	emit := func(pos token.Pos, msg string) {
		p := prog.Fset.Position(pos)
		pkg := fileOwner[p.Filename]
		if pkg == nil {
			return
		}
		diags[pkg] = append(diags[pkg], Diagnostic{Pos: p, Rule: "wireproto", Message: msg})
	}

	recvFns := toSet(w.cfg.WireRecvFns)
	enums := w.resolveEnums(prog)
	if len(enums) > 0 {
		for _, pkg := range prog.Packages {
			for _, f := range pkg.Files {
				if pkg.TestFile[f] {
					continue
				}
				w.classifyUses(prog, pkg, f, enums, recvFns, emit)
			}
		}
		for _, e := range enums {
			for _, c := range e.constants {
				if !e.produced[c] {
					emit(e.declPos[c], fmt.Sprintf("wire constant %s.%s is never produced (no message is ever built with it)", e.typ.Obj().Pkg().Name(), c.Name()))
				}
				if !e.consumed[c] {
					emit(e.declPos[c], fmt.Sprintf("wire constant %s.%s is never consumed (no receive path matches it)", e.typ.Obj().Pkg().Name(), c.Name()))
				}
			}
		}
	}

	w.checkWireStructs(prog, emit)

	for _, ds := range diags {
		sort.Slice(ds, func(i, j int) bool {
			a, b := ds[i], ds[j]
			if a.Pos.Filename != b.Pos.Filename {
				return a.Pos.Filename < b.Pos.Filename
			}
			return a.Pos.Line < b.Pos.Line
		})
	}
	return diags
}

// resolveEnums maps the configured enum names to their types and constants.
func (w *wireProto) resolveEnums(prog *Program) []*enumInfo {
	var enums []*enumInfo
	for _, name := range w.cfg.WireEnums {
		dot := strings.LastIndex(name, ".")
		if dot < 0 {
			continue
		}
		path, typeName := name[:dot], name[dot+1:]
		for _, pkg := range prog.Packages {
			if pkg.ImportPath != path {
				continue
			}
			tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			e := &enumInfo{
				name:     name,
				typ:      named,
				declPos:  make(map[*types.Const]token.Pos),
				produced: make(map[*types.Const]bool),
				consumed: make(map[*types.Const]bool),
			}
			// Collect constants in declaration order from the AST so the
			// "never produced/consumed" findings are deterministic.
			for _, f := range pkg.Files {
				if pkg.TestFile[f] {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					vs, ok := n.(*ast.ValueSpec)
					if !ok {
						return true
					}
					for _, id := range vs.Names {
						c, ok := pkg.Info.Defs[id].(*types.Const)
						if ok && types.Identical(c.Type(), named) {
							e.constants = append(e.constants, c)
							e.declPos[c] = id.Pos()
						}
					}
					return true
				})
			}
			enums = append(enums, e)
		}
	}
	return enums
}

// classifyUses walks one file, marking each wire-enum constant use as
// consumed (case clause, comparison, recv-helper argument) or produced
// (any other value use), and checking defaultless enum switches for
// exhaustiveness.
func (w *wireProto) classifyUses(prog *Program, pkg *Package, f *ast.File, enums []*enumInfo, recvFns map[string]bool, emit func(token.Pos, string)) {
	enumOf := func(c *types.Const) *enumInfo {
		for _, e := range enums {
			if types.Identical(c.Type(), e.typ) {
				return e
			}
		}
		return nil
	}
	constAt := func(expr ast.Expr) (*types.Const, *enumInfo) {
		var id *ast.Ident
		switch x := ast.Unparen(expr).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		default:
			return nil, nil
		}
		c, ok := pkg.Info.Uses[id].(*types.Const)
		if !ok {
			return nil, nil
		}
		e := enumOf(c)
		if e == nil {
			return nil, nil
		}
		return c, e
	}

	consumedIdents := make(map[ast.Expr]bool)
	markConsumed := func(expr ast.Expr) {
		if c, e := constAt(expr); c != nil {
			e.consumed[c] = true
			consumedIdents[ast.Unparen(expr)] = true
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SwitchStmt:
			if x.Tag == nil {
				return true
			}
			tv, ok := pkg.Info.Types[x.Tag]
			if !ok {
				return true
			}
			var e *enumInfo
			for _, cand := range enums {
				if types.Identical(tv.Type, cand.typ) {
					e = cand
				}
			}
			if e == nil {
				return true
			}
			present := make(map[*types.Const]bool)
			hasDefault := false
			for _, stmt := range x.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
				}
				for _, expr := range cc.List {
					if c, _ := constAt(expr); c != nil {
						present[c] = true
					}
					markConsumed(expr)
				}
			}
			if !hasDefault {
				var missing []string
				for _, c := range e.constants {
					if !present[c] {
						missing = append(missing, c.Name())
					}
				}
				if len(missing) > 0 {
					emit(x.Switch, fmt.Sprintf("switch over %s has no default and misses %s", e.name, strings.Join(missing, ", ")))
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				markConsumed(x.X)
				markConsumed(x.Y)
			}
		case *ast.CallExpr:
			if recvFns[calleeName(x)] {
				for _, arg := range x.Args {
					markConsumed(arg)
				}
			}
		}
		return true
	})

	// Every remaining value use is a production.
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		c, ok := pkg.Info.Uses[id].(*types.Const)
		if !ok {
			return true
		}
		e := enumOf(c)
		if e == nil {
			return true
		}
		if !consumedByAncestor(f, id, consumedIdents) {
			e.produced[c] = true
		}
		return true
	})
}

// consumedByAncestor reports whether ident (or a selector wrapping it) was
// classified as a consumption use.
func consumedByAncestor(f *ast.File, id *ast.Ident, consumed map[ast.Expr]bool) bool {
	if consumed[ast.Expr(id)] {
		return true
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if ok && sel.Sel == id && consumed[ast.Expr(sel)] {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkWireStructs verifies each configured wire struct has a round-trip
// test: an in-package Test*/Fuzz* function mentioning the type and calling
// both codec functions.
func (w *wireProto) checkWireStructs(prog *Program, emit func(token.Pos, string)) {
	for _, ws := range w.cfg.WireStructs {
		dot := strings.LastIndex(ws.Type, ".")
		if dot < 0 {
			continue
		}
		path, typeName := ws.Type[:dot], ws.Type[dot+1:]
		var tn *types.TypeName
		var declPkg *Package
		for _, pkg := range prog.Packages {
			if pkg.ImportPath != path {
				continue
			}
			if obj, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName); ok {
				tn, declPkg = obj, pkg
			}
		}
		if tn == nil || declPkg == nil {
			continue
		}
		if w.hasRoundTripTest(prog, tn, ws) {
			continue
		}
		emit(tn.Pos(), fmt.Sprintf("wire struct %s has no codec round-trip test (need a Test/Fuzz function calling %s and %s)",
			ws.Type, ws.Encode, ws.Decode))
	}
}

func (w *wireProto) hasRoundTripTest(prog *Program, tn *types.TypeName, ws WireStruct) bool {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			if !pkg.TestFile[f] {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				if !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Fuzz") {
					continue
				}
				mentions, callsEnc, callsDec := false, false, false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.Ident:
						if pkg.Info.Uses[x] == types.Object(tn) {
							mentions = true
						}
					case *ast.CallExpr:
						if fn := staticCallee(pkg, x); fn != nil {
							switch fn.FullName() {
							case ws.Encode:
								callsEnc = true
							case ws.Decode:
								callsDec = true
							}
						}
					}
					return true
				})
				if mentions && callsEnc && callsDec {
					return true
				}
			}
		}
	}
	return false
}
