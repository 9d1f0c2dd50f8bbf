// Package hotalloc enforces the zero-allocation contract on the
// simulation hot paths: the per-block and per-reference functions of
// the cache, VM and trace layers (the fused cache.Group sweep,
// lineSet.add/addRange, the vm.StackSim probe, the trace.Block
// append paths and mem.Memory's touch/emit pipeline) execute once per
// simulated memory reference, so a single heap allocation there is
// multiplied by hundreds of millions and drowns the placement effects
// the paper measures in harness noise.
//
// Two layers of evidence feed the same diagnostic stream:
//
//   - Syntactic: closures, make/new, map and slice literals,
//     address-taken composite literals, string concatenation,
//     fmt/errors/sort/strconv calls and concrete-to-interface
//     conversions inside a hot function are flagged directly.
//   - Compiler facts: when the driver ingests `go build -gcflags=-m`
//     output (internal/analysis/escape), every "escapes to heap" /
//     "moved to heap" diagnostic whose position falls inside a hot
//     function body is flagged too — this is the ground truth that
//     sees inlining and call-site boxing the syntax cannot.
//
// append is deliberately exempt: amortized slice growth into a
// warm, reused buffer is the hot paths' working idiom, and the
// AllocsPerRun regression tests (cache/vm zeroalloc tests) pin the
// warmed steady state to 0 allocs/op dynamically. Cold-path helpers
// called from hot functions (mem.PageDir.materialize and vm's
// fenwick.compact) are not in the hot set: materializing a page on
// first touch and growing the slot space are the documented amortized
// exceptions, and the dynamic tests hold them to account.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mallocsim/internal/analysis"
)

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "per-reference hot paths in cache/vm/trace/mem must not allocate: no closures, boxing, make/new or escaping values (append into reused buffers is exempt and pinned by AllocsPerRun tests)",
	Run:  run,
}

// hotFuncs maps package (path-suffix) → receiver type name → the
// method names under the zero-alloc contract. Matching is
// per-function, not transitive: a hot function may call a documented
// cold-path helper (page materialization) without inheriting its
// allocations.
var hotFuncs = map[string]map[string]map[string]bool{
	"cache": {
		"Group":   set("Ref", "accessLine", "Block", "fusedScan", "probeEntry", "probeRun"),
		"Cache":   set("Ref", "accessLine"),
		"lineSet": set("add", "addRange"),
		"Sharing": set("Ref", "Block", "access", "runRow", "accessLine"),
	},
	"vm": {
		"StackSim": set("Ref", "Block", "foldRepeats", "accessPage", "record"),
		"fenwick":  set("access", "entry", "prefix", "add"),
		"mtfList":  set("access"),
	},
	"trace": {
		"Block": set("Append", "AppendRun", "AppendRunTid", "AppendRefs", "Reset"),
	},
	"mem": {
		"Memory":  set("Touch", "TouchRun", "emit"),
		"PageDir": set("Lookup", "Peek"),
	},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// allocatingCall classifies calls to standard-library helpers that
// always heap-allocate. strconv's Append* family and everything not
// listed stay legal.
func allocatingCall(callee *types.Func) string {
	if callee.Pkg() == nil {
		return ""
	}
	pkg, name := callee.Pkg().Path(), callee.Name()
	switch pkg {
	case "fmt":
		return "fmt." + name + " allocates (and boxes its operands)"
	case "errors":
		return "errors." + name + " allocates"
	case "sort":
		if strings.HasPrefix(name, "Slice") {
			return "sort." + name + " boxes its comparator closure"
		}
	case "strconv":
		if !strings.HasPrefix(name, "Append") {
			return "strconv." + name + " allocates its result string (use the Append* forms into a reused buffer)"
		}
	case "strings":
		switch name {
		case "Join", "Repeat", "Replace", "ReplaceAll", "Split", "Fields", "ToUpper", "ToLower", "Map", "Clone":
			return "strings." + name + " allocates its result"
		}
	}
	return ""
}

func run(pass *analysis.Pass) error {
	var byRecv map[string]map[string]bool
	for pkgName, m := range hotFuncs {
		if analysis.PkgIs(pass.Path, pkgName) {
			byRecv = m
			break
		}
	}
	if byRecv == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			recv := recvTypeName(fd)
			if methods := byRecv[recv]; methods != nil && methods[fd.Name.Name] {
				label := recv + "." + fd.Name.Name
				checkBody(pass, fd, label)
				checkEscapes(pass, fd, label)
			}
		}
	}
	return nil
}

// recvTypeName extracts the receiver's base type name, without the
// type parameters of a generic receiver.
func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkBody applies the syntactic allocation checks to one hot
// function.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, label string) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"closure literal in hot function %s allocates per call; hoist it to a method or a reused field", label)
			return false // its body is the closure's problem, not a second report per node
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(),
						"&composite literal in hot function %s escapes to the heap; reuse a preallocated value instead", label)
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in hot function %s allocates; hoist the map to a reused field", label)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in hot function %s allocates its backing array; reuse a buffer", label)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t, ok := info.TypeOf(n).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					pass.Reportf(n.Pos(),
						"string concatenation in hot function %s allocates; format off the hot path or append into a reused []byte", label)
				}
			}
		case *ast.CallExpr:
			checkCall(pass, info, n, label)
		}
		return true
	})
}

// checkCall flags builtin allocators, allocating stdlib helpers and
// concrete-to-interface argument boxing.
func checkCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, label string) {
	switch callee := calleeObject(info, call).(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "make":
			pass.Reportf(call.Pos(),
				"make in hot function %s allocates per call; size the buffer at construction (append growth into a warm buffer is the sanctioned idiom)", label)
		case "new":
			pass.Reportf(call.Pos(), "new in hot function %s allocates; reuse a preallocated value", label)
		}
		return
	case *types.Func:
		if why := allocatingCall(callee); why != "" {
			pass.Reportf(call.Pos(), "%s in hot function %s; move it off the per-reference path", why, label)
			return
		}
		checkBoxing(pass, info, call, callee, label)
	}
}

// checkBoxing reports arguments whose concrete values convert to
// interface parameters at a hot call site — each such conversion heap-
// allocates the boxed value (small-integer and zero-size exceptions
// are too fragile to bless statically; the escape facts confirm the
// real ones).
func checkBoxing(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, callee *types.Func, label string) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
			param = sig.Params().At(i).Type()
		case sig.Variadic() && !call.Ellipsis.IsValid():
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				param = sl.Elem()
			}
		}
		if param == nil || !types.IsInterface(param.Underlying()) {
			continue
		}
		at := info.Types[arg]
		if at.Type == nil || at.IsNil() || types.IsInterface(at.Type.Underlying()) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"argument boxes %s into interface %s in hot function %s; keep hot calls monomorphic",
			at.Type.String(), param.String(), label)
	}
}

// checkEscapes overlays the compiler's escape facts: any heap fact
// positioned inside this hot function's body is a violation.
func checkEscapes(pass *analysis.Pass, fd *ast.FuncDecl, label string) {
	if len(pass.Escapes) == 0 {
		return
	}
	start := pass.Fset.Position(fd.Body.Pos())
	end := pass.Fset.Position(fd.Body.End())
	tokFile := pass.Fset.File(fd.Body.Pos())
	for _, fact := range pass.Escapes {
		if fact.File != start.Filename || fact.Line < start.Line || fact.Line > end.Line {
			continue
		}
		pos := tokFile.LineStart(fact.Line)
		pass.Reportf(pos,
			"compiler escape analysis: %s in hot function %s (go build -gcflags=-m)", fact.Msg, label)
	}
}

// calleeObject resolves the called function, seeing through parens.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}
