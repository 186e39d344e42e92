package lint

import "go/types"

// ifaceIndex resolves dynamic dispatch for the call graph and its clients:
// given an interface method, it returns every method of a module-defined
// concrete type that can stand behind the call. The index is conservative
// in the direction the analyses need — it assumes any in-module
// implementation may be the dynamic callee, so a dispatch site inherits the
// union of the implementations' behaviors (for taint: tainted if ANY
// implementation taints, clean only if ALL of them are clean or sanitize).
//
// Implementations outside the module (stdlib, vendored code) are invisible
// here; those are covered by configuring the interface method's own
// FullName as a source/sink, which the direct-name path matches first.
type ifaceIndex struct {
	named []*types.Named
	cache map[*types.Func][]*types.Func
}

// newIfaceIndex collects every package-level concrete named type in the
// module. Packages and scope names are already sorted, so the candidate
// order — and with it every diagnostic derived from it — is deterministic.
func newIfaceIndex(prog *Program) *ifaceIndex {
	ix := &ifaceIndex{cache: make(map[*types.Func][]*types.Func)}
	for _, pkg := range prog.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			if named.TypeParams().Len() > 0 {
				// An uninstantiated generic has no usable method set; its
				// instantiations are analyzed at their use sites instead.
				continue
			}
			ix.named = append(ix.named, named)
		}
	}
	return ix
}

// implsOf returns the concrete module methods implementing the interface
// method fn, or nil when fn is not an interface method (or nothing in the
// module implements its interface).
func (ix *ifaceIndex) implsOf(fn *types.Func) []*types.Func {
	if ix == nil || fn == nil {
		return nil
	}
	if impls, ok := ix.cache[fn]; ok {
		return impls
	}
	var impls []*types.Func
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, named := range ix.named {
				ptr := types.NewPointer(named)
				if !types.Implements(named, it) && !types.Implements(ptr, it) {
					continue
				}
				// Look up through the pointer type so methods with either
				// receiver form are found.
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
				if m, ok := obj.(*types.Func); ok && m != fn {
					impls = append(impls, m)
				}
			}
		}
	}
	ix.cache[fn] = impls
	return impls
}
