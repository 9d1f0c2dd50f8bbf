// Package determinism protects the repo's byte-identical-output
// guarantees: parallel experiment runs (workers=1 ≡ workers=8, PR 2)
// and shadow-checked runs (-check changes no measured byte, PR 3) only
// hold if the simulation and reporting pipeline is a pure function of
// its inputs. In the packages that compute or assemble results —
// sim, paper, obs, mem, cache and vm — this analyzer forbids the three
// stdlib trapdoors through which nondeterminism leaks:
//
//  1. Wall-clock reads: time.Now, time.Since and friends. Simulated
//     time is instruction counts (cost.Meter); wall time belongs in
//     cmd/ front-ends and benchmarks only.
//  2. Global math/rand (and math/rand/v2): the global source is seeded
//     per-process and shared across goroutines. All stochastic inputs
//     must come from internal/rng, which is seeded explicitly and
//     deterministic per (seed, stream). hash/maphash falls under the
//     same rule: its seeds are randomized per process, so a hash that
//     selects or orders simulation state must be a fixed function of
//     its input.
//  3. Unsorted map iteration: a range over a map observes Go's
//     randomized iteration order. The one blessed shape is the
//     collect-keys-then-sort idiom — a loop body that only appends the
//     range key to a slice which is passed to a sort function later in
//     the same block. Anything else must either iterate a slice, sort
//     first, or carry a //lint:allow determinism justification proving
//     the fold is order-insensitive.
//
// The experiment service (internal/serve, PR 5) is also in scope: a
// served report must be the same bytes the locality CLI writes. serve
// does legitimately need wall time — job timestamps and per-job
// deadlines — so the rules gain one blessed escape hatch: a file named
// clock.go may read the clock; everything else must go through the
// Clock interface it defines. context.WithTimeout and
// context.WithDeadline are banned in scoped packages outside clock.go
// for the same reason — they arm an unmockable wall-clock timer; arm
// the deadline on the injected clock and cancel with
// context.WithCancelCause(…)(context.DeadlineExceeded) instead.
package determinism

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"mallocsim/internal/analysis"
)

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "internal/{sim,paper,obs,mem,cache,vm,serve,store} must not read wall clocks, use global math/rand, or iterate maps unsorted — run results must be byte-identical across runs and worker counts",
	Run:  run,
}

// scopedPkgs are the package names (path-suffix matched) the guarantees
// cover. mem is scoped for PageDir.Each, the ordered page walk behind
// the cache simulators' results. store is scoped so that two processes
// over one store directory enumerate documents identically (listings,
// index rewrites).
var scopedPkgs = []string{"sim", "paper", "obs", "mem", "cache", "vm", "serve", "store"}

// clockFuncs are the time package functions that read the wall clock or
// schedule against it.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

// bannedImports map forbidden import paths to the replacement.
// hash/maphash is banned for the same reason as global math/rand: its
// seeds (maphash.MakeSeed, the zero-Hash auto-seed) are randomized per
// process, so anything selected or ordered by it (say, a subset of
// pages or lines) would differ between two runs of one trace.
var bannedImports = map[string]string{
	"math/rand":    "internal/rng (explicitly seeded, deterministic per stream)",
	"math/rand/v2": "internal/rng (explicitly seeded, deterministic per stream)",
	"hash/maphash": "a fixed avalanche hash of the value (such as SplitMix64's finalizer); maphash seeds are randomized per process",
}

func inScope(path string) bool {
	for _, p := range scopedPkgs {
		if analysis.PkgIs(path, p) || analysis.PkgUnder(path, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		checkImports(pass, f)
		checkClockAndMaps(pass, f)
	}
	return nil
}

func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := imp.Path.Value
		path = path[1 : len(path)-1]
		if repl, banned := bannedImports[path]; banned {
			pass.Reportf(imp.Pos(), "import of %s in a determinism-scoped package; use %s", path, repl)
		}
	}
}

// isClockFile reports whether f is the package's blessed clock shim —
// the one file allowed to touch the wall clock, which must confine it
// behind an injected interface (internal/serve's Clock).
func isClockFile(pass *analysis.Pass, f *ast.File) bool {
	return filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "clock.go"
}

func checkClockAndMaps(pass *analysis.Pass, f *ast.File) {
	clockFile := isClockFile(pass, f)
	analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn, ok := calleeFunc(pass, n)
			if !ok || fn.Pkg() == nil {
				break
			}
			switch {
			case fn.Pkg().Path() == "time" && clockFuncs[fn.Name()] && !clockFile:
				pass.Reportf(n.Pos(),
					"time.%s reads the wall clock in a determinism-scoped package; simulated time is instruction counts (cost.Meter), and service wall time goes through the injected Clock (clock.go)",
					fn.Name())
			case fn.Pkg().Path() == "context" &&
				(fn.Name() == "WithTimeout" || fn.Name() == "WithDeadline") && !clockFile:
				pass.Reportf(n.Pos(),
					"context.%s arms an unmockable wall-clock timer in a determinism-scoped package; arm the deadline on the injected Clock and cancel with context.WithCancelCause",
					fn.Name())
			}
		case *ast.RangeStmt:
			checkMapRange(pass, n, stack)
		}
		return true
	})
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn, ok
}

// checkMapRange flags a range over a map unless it is the
// collect-keys-then-sort idiom.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if isSortedKeysIdiom(pass, rs, stack) {
		return
	}
	pass.Reportf(rs.Pos(),
		"map iteration order is randomized; collect keys and sort (the keys := ...; sort.X(keys) idiom), iterate a slice instead, or justify order-insensitivity with //lint:allow determinism")
}

// isSortedKeysIdiom recognizes
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)          // or sort.Slice/slices.Sort... on keys
//
// where the sort call appears after the loop in the same enclosing
// block.
func isSortedKeysIdiom(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	if a0, ok := call.Args[0].(*ast.Ident); !ok || a0.Name != dst.Name {
		return false
	}
	if a1, ok := call.Args[1].(*ast.Ident); !ok || a1.Name != key.Name {
		return false
	}
	// Find the enclosing block and require a sort of dst after the loop.
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		after := false
		for _, st := range block.List {
			if st == ast.Stmt(rs) || containsNode(st, rs) {
				after = true
				continue
			}
			if after && sortsSlice(pass, st, dst.Name) {
				return true
			}
		}
		return false
	}
	return false
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// sortsSlice reports whether stmt calls sort.X(name, ...) or
// slices.SortX(name, ...).
func sortsSlice(pass *analysis.Pass, stmt ast.Stmt, name string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn, ok := calleeFunc(pass, call)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && arg.Name == name {
			found = true
		}
		return !found
	})
	return found
}
