package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// lockDiscipline enforces "// guarded by <mutex>" field annotations
// flow-sensitively: an access to an annotated field must happen at a
// program point where the sibling mutex the annotation names is held on
// EVERY path reaching it (the shared lock model, lockmodel.go), or inside a
// function that declares its caller holds the lock via the repo's
// "...Locked" name suffix. So an access after mu.Unlock() on the same path,
// on the failed branch of a TryLock, after a conditional unlock, or inside
// a `go` literal is a finding even though the body contains a Lock call.
// The race detector only sees interleavings that actually happen in tests;
// this rule states the invariant for every interleaving.
type lockDiscipline struct{}

func (*lockDiscipline) Name() string { return "lockdiscipline" }

func (*lockDiscipline) Doc() string {
	return `fields annotated "// guarded by <mutex>" may only be accessed while that mutex is held on every path (or from *Locked helpers)`
}

func (ld *lockDiscipline) Check(prog *Program, pkg *Package) []Diagnostic {
	guards := collectGuards(pkg)
	if len(guards) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			walkLocks(pkg, fd, func(ev lockEvent) {
				if ev.access == nil {
					return
				}
				field, ok := pkg.Info.Uses[ev.access.Sel].(*types.Var)
				if !ok {
					return
				}
				g, guarded := guards[field.Origin()]
				if !guarded || ev.held[g.mu] {
					return
				}
				diags = append(diags, Diagnostic{
					Pos:  prog.Fset.Position(ev.access.Sel.Pos()),
					Rule: "lockdiscipline",
					Message: fmt.Sprintf("field %s is guarded by %s, but %s does not hold %s here (not held on every path to this access)",
						field.Name(), g.name, fd.Name.Name, g.name),
				})
			})
		}
	}
	return diags
}
