// Package puresim protects the shadow oracle's zero-perturbation
// guarantee (PR 3): a run under -check must be byte-identical to an
// unchecked run, which holds only because the oracle in
// internal/alloc/shadow is pure host-side bookkeeping and its periodic
// heap audit reads simulated memory uncounted — neither issues
// simulated memory references nor charges instructions.
//
// The analyzer computes the static call graph from two kinds of root —
// every function of the shadow package, and the heap auditor's walk
// alloc.(*HeapCheck).Run — following direct calls across packages into
// any function whose source is in the loaded tree, and reports paths
// that reach a reference-emitting or instruction-charging API:
// (*mem.Memory).ReadWord/WriteWord/Touch/Flush/SetSink/SetBatching,
// (*mem.Region).Sbrk, (*cost.Meter).Charge/ChargeTo/Enter, and
// alloc.Charge. The audit reads tags through (*mem.Memory).PeekWord,
// which emits and charges nothing.
//
// Dynamic dispatch is the analysis boundary: calls through interfaces
// (the wrapped alloc.Allocator, the alloc.Checker audit hook) are not
// traversed. The forwarded allocator call is the run being measured;
// the audit hook's implementations each build an alloc.HeapCheck and
// call Run, which is why Run is a root of its own.
package puresim

import (
	"go/ast"
	"go/types"

	"mallocsim/internal/analysis"
)

// Analyzer is the puresim analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "puresim",
	Doc:  "code statically reachable from the shadow oracle or the heap audit walk must not emit simulated references or charge instructions (-check runs must stay byte-identical)",
	Run:  run,
}

// banned maps package name (path-suffix matched) to receiver-qualified
// or plain function names that emit references or charge instructions.
type bannedFunc struct {
	pkg  string // package path suffix
	recv string // receiver type name, "" for plain functions
	name string
}

var bannedFuncs = []bannedFunc{
	{"mem", "Memory", "ReadWord"},
	{"mem", "Memory", "WriteWord"},
	{"mem", "Memory", "Touch"},
	{"mem", "Memory", "Flush"},
	{"mem", "Memory", "SetSink"},
	{"mem", "Memory", "SetBatching"},
	{"mem", "Region", "Sbrk"},
	{"cost", "Meter", "Charge"},
	{"cost", "Meter", "ChargeTo"},
	{"cost", "Meter", "Enter"},
	{"alloc", "", "Charge"},
}

func isBanned(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	recv := recvName(fn)
	for _, b := range bannedFuncs {
		if b.name == fn.Name() && b.recv == recv && analysis.PkgIs(fn.Pkg().Path(), b.pkg) {
			qual := fn.Pkg().Name() + "." + fn.Name()
			if recv != "" {
				qual = "(*" + fn.Pkg().Name() + "." + recv + ")." + fn.Name()
			}
			return qual, true
		}
	}
	return "", false
}

// roots returns the package's functions the purity rule starts from,
// and how diagnostics name them: every function of the shadow package,
// or alloc's HeapCheck.Run.
func roots(pass *analysis.Pass) (fns []*types.Func, what string) {
	shadow := analysis.PkgIs(pass.Path, "shadow")
	if !shadow && !analysis.PkgIs(pass.Path, "alloc") {
		return nil, ""
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if shadow || (obj.Name() == "Run" && recvName(obj) == "HeapCheck") {
				fns = append(fns, obj)
			}
		}
	}
	if shadow {
		return fns, "the shadow oracle"
	}
	return fns, "the heap audit"
}

// recvName returns the name of fn's receiver type, "" for a plain
// function.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func run(pass *analysis.Pass) error {
	rootFns, what := roots(pass)
	if len(rootFns) == 0 {
		return nil
	}
	// Index every function body in the loaded tree so traversal can
	// cross package boundaries (shadow → mem.RegionAt → ...).
	bodies := map[*types.Func]*ast.FuncDecl{}
	infos := map[*types.Func]*types.Info{}
	for _, p := range pass.All {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					bodies[obj] = fd
					infos[obj] = p.Info
				}
			}
		}
	}

	// visited[fn] — fn's transitive closure is known clean or already
	// queued; impure call paths are reported once per offending edge
	// out of a root.
	visited := map[*types.Func]bool{}
	var visit func(fn *types.Func, origin *ast.CallExpr, chain []string)
	visit = func(fn *types.Func, origin *ast.CallExpr, chain []string) {
		if visited[fn] {
			return
		}
		visited[fn] = true
		fd := bodies[fn]
		info := infos[fn]
		if fd == nil || info == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				return true
			}
			if qual, bad := isBanned(callee); bad {
				at := origin
				if at == nil {
					at = call // direct call from the root itself
				}
				pass.Reportf(at.Pos(),
					"%s is reachable from %s via %s: it must not emit references or charge instructions, or -check runs stop being byte-identical",
					qual, what, chainString(append(chain, fn.FullName())))
				return true
			}
			next := origin
			if next == nil {
				next = call
			}
			visit(callee, next, append(chain, fn.FullName()))
			return true
		})
	}
	for _, fn := range rootFns {
		visit(fn, nil, nil)
	}
	return nil
}

func chainString(chain []string) string {
	out := ""
	for i, c := range chain {
		if i > 0 {
			out += " → "
		}
		out += c
	}
	return out
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		// Skip interface method calls: dynamic dispatch is the analysis
		// boundary (see package doc).
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
