package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
)

// This file is the one lock model both lock rules report over:
// lockdiscipline ("the guard is not held at this access") and lockorder
// ("an edge from every held lock at this acquisition or call"). It runs on
// the CFG/dataflow engine (cfg.go, dataflow.go) as a must-analysis whose
// fact is the set of mutexes held on EVERY path to a point:
//
//   - an Unlock on the same path ends the hold, even though the body
//     contains a Lock call; conditional unlocks meet by intersection, so
//     after `if p { mu.Unlock() }` the lock no longer counts as held, and
//     `if w { mu.Lock() } else { mu.RLock() }` is one acquisition;
//   - `defer mu.Unlock()` holds the lock to every function exit;
//   - TryLock holds the lock on exactly the success branch — `if
//     mu.TryLock()`, the negated `if !mu.TryLock() { return }` guard, and a
//     boolean local bound to the result;
//   - function literals are their own CFGs: a literal inside a `go`
//     statement starts with nothing held (it runs on another goroutine, and
//     what it acquires is not its creator's doing); any other literal
//     inherits the held set at its creation point.
//
// Mutexes are identified by their variable (struct field, package or local
// var of type sync.Mutex / sync.RWMutex, possibly behind a pointer), through
// Origin() so every instantiation of a generic type shares one identity.

// lockOpKind classifies a mutex method.
type lockOpKind int

const (
	opAcquire lockOpKind = iota // Lock, RLock
	opTry                       // TryLock, TryRLock: held on the success branch only
	opRelease                   // Unlock, RUnlock
)

// mutexOpOf recognizes m.Lock() / x.mu.RLock() / ws.mu.TryLock() etc.,
// returning the mutex variable and what the call does to it.
func mutexOpOf(pkg *Package, call *ast.CallExpr) (*types.Var, lockOpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0, false
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opAcquire
	case "TryLock", "TryRLock":
		kind = opTry
	case "Unlock", "RUnlock":
		kind = opRelease
	default:
		return nil, 0, false
	}
	var id *ast.Ident
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		id = recv
	case *ast.SelectorExpr:
		id = recv.Sel
	default:
		return nil, 0, false
	}
	v, ok := identObj(pkg, id).(*types.Var)
	if !ok || !isMutexType(v.Type()) {
		return nil, 0, false
	}
	return v.Origin(), kind, true
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// guard is one "// guarded by <name>" field annotation.
type guard struct {
	name string // the mutex as the annotation spells it
	// mu is the sibling field of mutex type the annotation names; nil when
	// the struct has none, in which case the annotation protects nothing.
	mu *types.Var
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// collectGuards maps each struct field of pkg annotated "// guarded by
// <name>" (line or doc comment) to its guard, keyed by the declared field —
// look an access up through Origin(), since go/types mints fresh field
// objects per generic instantiation.
func collectGuards(pkg *Package) map[*types.Var]guard {
	guards := make(map[*types.Var]guard)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			siblings := make(map[string]*types.Var)
			annotated := make(map[*types.Var]string)
			for _, field := range st.Fields.List {
				name := ""
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
						name = m[1]
					}
				}
				for _, id := range field.Names {
					v, ok := pkg.Info.Defs[id].(*types.Var)
					if !ok {
						continue
					}
					if isMutexType(v.Type()) {
						siblings[id.Name] = v
					}
					if name != "" {
						annotated[v] = name
					}
				}
			}
			for v, name := range annotated {
				guards[v] = guard{name: name, mu: siblings[name]}
			}
			return true
		})
	}
	return guards
}

// lockFact is the dataflow fact: the mutexes held on every path to the
// current point.
type lockFact map[*types.Var]bool

// lockAnalysis implements Analysis[lockFact]: a must-analysis
// (intersection meet) with TryLock branch refinement.
type lockAnalysis struct {
	pkg *Package
	// tryBinds maps a boolean local to the mutex whose TryLock result it
	// holds (ok := mu.TryLock()).
	tryBinds map[types.Object]*types.Var
	entry    lockFact
}

func (a *lockAnalysis) Entry() lockFact           { return maps.Clone(a.entry) }
func (a *lockAnalysis) Clone(f lockFact) lockFact { return maps.Clone(f) }
func (a *lockAnalysis) Equal(x, y lockFact) bool  { return maps.Equal(x, y) }

func (a *lockAnalysis) Meet(x, y lockFact) lockFact {
	out := lockFact{}
	for k := range x {
		if y[k] {
			out[k] = true
		}
	}
	return out
}

func (a *lockAnalysis) Transfer(n ast.Node, f lockFact) lockFact {
	a.scanNode(n, f, nil, nil)
	return f
}

// TransferCond refines the fact on a conditional edge: a branch taken
// exactly when TryLock succeeded holds the lock. Recognized shapes:
// `mu.TryLock()`, `!mu.TryLock()`, and a bound boolean `ok` / `!ok` where
// `ok := mu.TryLock()`.
func (a *lockAnalysis) TransferCond(cond ast.Expr, branch bool, f lockFact) lockFact {
	heldOn := true
	e := ast.Unparen(cond)
	for {
		u, ok := e.(*ast.UnaryExpr)
		if !ok || u.Op != token.NOT {
			break
		}
		heldOn = !heldOn
		e = ast.Unparen(u.X)
	}
	var mu *types.Var
	switch x := e.(type) {
	case *ast.CallExpr:
		if v, kind, ok := mutexOpOf(a.pkg, x); ok && kind == opTry {
			mu = v
		}
	case *ast.Ident:
		mu = a.tryBinds[identObj(a.pkg, x)]
	}
	if mu != nil && heldOn == branch {
		f[mu] = true
	}
	return f
}

// lockEvent is one observation of the lock model. Exactly one of access and
// call is set; acquired is additionally set when call is a Lock, RLock,
// TryLock or TryRLock.
type lockEvent struct {
	// held is the set of mutexes held on every path to this point, before
	// the event's own effect. It is only valid during the callback.
	held lockFact
	// detached: the event happens inside a `go` literal, on another
	// goroutine than the declared function's callers.
	detached bool

	access   *ast.SelectorExpr
	call     *ast.CallExpr
	acquired *types.Var
}

// scanNode walks one CFG node in evaluation order, applying lock operations
// to f and reporting events. Function literal subtrees are not entered
// (onLit collects them with the fact at creation); a deferred unlock is
// skipped so the lock stays held to function exit; TryLock acquires nothing
// here — only TransferCond's branch refinement can add it. The call a `go`
// statement launches is no event: it runs on another goroutine.
func (a *lockAnalysis) scanNode(n ast.Node, f lockFact, visit func(lockEvent), onLit func(lit *ast.FuncLit, held lockFact, inGo bool)) {
	var launched *ast.CallExpr
	switch x := n.(type) {
	case *ast.GoStmt:
		launched = x.Call
	case *ast.DeferStmt:
		if _, kind, ok := mutexOpOf(a.pkg, x.Call); ok && kind == opRelease {
			return
		}
	}
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if onLit != nil {
				onLit(x, f, launched != nil)
			}
			return false
		case *ast.RangeStmt:
			// A range header node carries the whole loop as children;
			// only the operand and iteration vars belong to this block.
			for _, e := range []ast.Expr{x.X, x.Key, x.Value} {
				if e != nil {
					ast.Inspect(e, walk)
				}
			}
			return false
		case *ast.SelectorExpr:
			if visit != nil {
				visit(lockEvent{held: f, access: x})
			}
		case *ast.CallExpr:
			mu, kind, isOp := mutexOpOf(a.pkg, x)
			switch {
			case !isOp:
				if visit != nil && x != launched {
					visit(lockEvent{held: f, call: x})
				}
			case kind == opRelease:
				delete(f, mu)
			default:
				if visit != nil {
					visit(lockEvent{held: f, call: x, acquired: mu})
				}
				if kind == opAcquire {
					f[mu] = true
				}
			}
		}
		return true
	}
	ast.Inspect(n, walk)
}

// collectTryLockBinds maps boolean locals assigned a TryLock result to the
// mutex: `ok := mu.TryLock()` lets a later `if ok { ... }` hold mu on the
// success branch. A local also assigned anything else is dropped (its truth
// no longer implies the lock is held).
func collectTryLockBinds(pkg *Package, body *ast.BlockStmt) map[types.Object]*types.Var {
	binds := make(map[types.Object]*types.Var)
	poisoned := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
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
			var mu *types.Var
			if i < len(as.Rhs) {
				if call, isCall := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); isCall {
					if v, kind, ok := mutexOpOf(pkg, call); ok && kind == opTry {
						mu = v
					}
				}
			}
			if mu == nil || (binds[obj] != nil && binds[obj] != mu) {
				poisoned[obj] = true
				delete(binds, obj)
			} else if !poisoned[obj] {
				binds[obj] = mu
			}
		}
		return true
	})
	return binds
}

// walkLocks solves the held-lock analysis over fd and every function
// literal inside it, replays the converged facts, and reports each field
// access, acquisition and call with the set held at that point.
func walkLocks(pkg *Package, fd *ast.FuncDecl, visit func(lockEvent)) {
	type frame struct {
		body     *ast.BlockStmt
		entry    lockFact
		detached bool
	}
	tryBinds := collectTryLockBinds(pkg, fd.Body)
	work := []frame{{body: fd.Body, entry: lockFact{}}}
	for len(work) > 0 {
		fr := work[len(work)-1]
		work = work[:len(work)-1]
		an := &lockAnalysis{pkg: pkg, tryBinds: tryBinds, entry: fr.entry}
		cfg := buildCFG(fd.Name.Name, fr.body, pkg.Info)
		Replay(cfg, an, Solve(cfg, an), func(n ast.Node, f lockFact) {
			// Scan a copy: the fact evolves through in-node lock operations
			// in evaluation order, and Replay applies Transfer itself.
			an.scanNode(n, maps.Clone(f),
				func(ev lockEvent) {
					ev.detached = fr.detached
					visit(ev)
				},
				func(lit *ast.FuncLit, held lockFact, inGo bool) {
					if inGo {
						work = append(work, frame{body: lit.Body, entry: lockFact{}, detached: true})
					} else {
						work = append(work, frame{body: lit.Body, entry: maps.Clone(held), detached: fr.detached})
					}
				})
		})
	}
}
