package hotalloc

import (
	"go/ast"
	"testing"

	"mallocsim/internal/analysis"
	"mallocsim/internal/analysis/load"
)

// TestHotFuncsExist: every receiver and method hotFuncs lists must name
// a method declared in a module package its key matches. Matching is by
// name, so an entry whose function was renamed or deleted would
// otherwise leave the zero-alloc contract covering nothing while the
// lint gate stays clean.
func TestHotFuncsExist(t *testing.T) {
	root, modPath, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.NewLoader(modPath, root).Tree()
	if err != nil {
		t.Fatal(err)
	}
	for pkgName, byRecv := range hotFuncs {
		declared := map[string]bool{} // "Recv.Method"
		matched := false
		for _, p := range pkgs {
			if !analysis.PkgIs(p.Path, pkgName) {
				continue
			}
			matched = true
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
						declared[recvTypeName(fd)+"."+fd.Name.Name] = true
					}
				}
			}
		}
		if !matched {
			t.Errorf("hotFuncs lists package %q, which matches no package of the module", pkgName)
			continue
		}
		for recv, methods := range byRecv {
			for m := range methods {
				if !declared[recv+"."+m] {
					t.Errorf("hotFuncs lists %s.%s in package %q, which declares no such method", recv, m, pkgName)
				}
			}
		}
	}
}
