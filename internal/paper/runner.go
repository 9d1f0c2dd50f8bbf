// Package paper regenerates every table and figure of the paper's
// evaluation section (Grunwald, Zorn & Henderson, "Improving the Cache
// Locality of Memory Allocation", PLDI 1993).
//
// A Runner memoizes one fully-instrumented simulation per
// (program, allocator) pair — five cache configurations simulated in a
// single pass, plus LRU stack-distance page simulation for the two
// programs the paper's paging figures use — and each Figure/Table
// method assembles its rows from those runs. Absolute numbers differ
// from the paper (our programs are synthetic models of the originals;
// see DESIGN.md), but the comparisons the paper draws — who wins, by
// what factor, where the crossovers fall — are the reproduction target.
package paper

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"mallocsim/internal/alloc"
	"mallocsim/internal/alloc/all"
	"mallocsim/internal/alloc/shadow"
	"mallocsim/internal/cache"
	"mallocsim/internal/sim"
	"mallocsim/internal/workload"
)

// CacheSizes are the direct-mapped cache capacities simulated for every
// run: the paper's Figures 6–8 sweep 16 KB to 256 KB.
var CacheSizes = []uint64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}

// Allocators are the five implementations the paper compares, in its
// presentation order.
var Allocators = all.Paper

// DefaultScale trades runtime for trace length: scale 16 runs 1/16 of
// each program's events while preserving heap footprints (see
// workload.Config). Figures reproduce at any scale; tests use coarser
// scales for speed.
const DefaultScale = 16

// pageSimPrograms are the programs whose runs also carry page-fault
// simulation (the paper shows paging curves for GhostScript and PTC).
var pageSimPrograms = map[string]bool{"gs": true, "ptc": true}

// Runner memoizes simulation results across experiments. Each
// (program, allocator) simulation is hermetic — it owns its mem.Memory,
// allocator instance and sinks — so independent pairs may run
// concurrently; Runner's memo is mutex-guarded with single-flight per
// key, making Result safe to call from many goroutines and each pair's
// simulation run at most once.
type Runner struct {
	Scale   uint64
	Seed    uint64
	Penalty uint64

	// Workers bounds the worker pool used by Prefetch and RunAll.
	// 0 means GOMAXPROCS; 1 recovers the fully sequential path. The
	// results are byte-identical either way — only wall-clock changes.
	Workers int

	// CheckHeap runs every simulation under the shadow heap auditor
	// (sim.Config.CheckHeap). The auditor is host-side only, so all
	// paper metrics stay byte-identical; violations are collected per
	// pair and aggregated by ShadowSnapshots.
	CheckHeap bool

	mu       sync.Mutex
	memo     map[string]*sim.Result
	inflight map[string]*flight
}

// flight is one in-progress simulation, awaited by duplicate callers.
type flight struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// NewRunner creates a Runner at the given scale (0 = DefaultScale).
func NewRunner(scale uint64) *Runner {
	if scale == 0 {
		scale = DefaultScale
	}
	return &Runner{
		Scale:    scale,
		Seed:     1,
		Penalty:  sim.DefaultPenalty,
		memo:     map[string]*sim.Result{},
		inflight: map[string]*flight{},
	}
}

// workerCount resolves Workers to a concrete pool size.
func (r *Runner) workerCount() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result returns the memoized fully-instrumented run for the pair,
// executing it if needed. Safe for concurrent use: duplicate concurrent
// calls for one key share a single simulation. A done context aborts
// promptly — the running simulation polls ctx in its step loop, and a
// caller waiting on another caller's in-flight run stops waiting when
// its own ctx is done (the flight itself keeps the context it was
// started under).
func (r *Runner) Result(ctx context.Context, progName, allocName string) (*sim.Result, error) {
	key := progName + "/" + allocName
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("paper: %s: %w", key, context.Cause(ctx))
	}
	r.mu.Lock()
	if res, ok := r.memo[key]; ok {
		r.mu.Unlock()
		return res, nil
	}
	if f, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		select {
		case <-f.done:
			return f.res, f.err
		case <-ctx.Done():
			return nil, fmt.Errorf("paper: %s: %w", key, context.Cause(ctx))
		}
	}
	f := &flight{done: make(chan struct{})}
	r.inflight[key] = f
	r.mu.Unlock()

	f.res, f.err = r.runPair(ctx, progName, allocName)

	r.mu.Lock()
	if f.err == nil {
		r.memo[key] = f.res
	}
	delete(r.inflight, key)
	r.mu.Unlock()
	close(f.done)
	return f.res, f.err
}

// runPair executes one fully-instrumented simulation. progName may name
// either a sequential program (workload.ByName) or a concurrent server
// scenario (workload.ServerByName); the two catalogs share a namespace.
func (r *Runner) runPair(ctx context.Context, progName, allocName string) (*sim.Result, error) {
	cfgs := make([]cache.Config, len(CacheSizes))
	for i, s := range CacheSizes {
		cfgs[i] = cache.Config{Size: s}
	}
	cfg := sim.Config{
		Allocator: allocName,
		Scale:     r.Scale,
		Seed:      r.Seed,
		Caches:    cfgs,
		CheckHeap: r.CheckHeap,
	}
	if srv, ok := workload.ServerByName(progName); ok {
		cfg.Server = &srv
	} else {
		prog, ok := workload.ByName(progName)
		if !ok {
			return nil, fmt.Errorf("paper: unknown program %q", progName)
		}
		cfg.Program = prog
		cfg.PageSim = pageSimPrograms[progName]
	}
	return sim.RunContext(ctx, cfg)
}

// ShadowSnapshots returns the heap-auditor verdicts of every memoized
// run, keyed "program/allocator" in sorted order, plus the total
// violation count. Empty unless the Runner was configured with
// CheckHeap.
func (r *Runner) ShadowSnapshots() (map[string]*shadow.Snapshot, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]*shadow.Snapshot{}
	var total uint64
	for _, k := range r.sortedMemoKeys() {
		if s := r.memo[k].Shadow; s != nil {
			out[k] = s
			total += s.Violations
		}
	}
	return out, total
}

// Pair names one (program, allocator) simulation.
type Pair struct {
	Program   string
	Allocator string
}

// Prefetch runs the given pairs through a bounded worker pool (Workers
// goroutines), populating the memo so that subsequent table assembly is
// pure lookup. Already-memoized pairs cost nothing. It returns the
// first error encountered after all workers drain; every run is
// hermetic, so results are byte-identical to executing the pairs
// sequentially. A done ctx makes the remaining pairs fail fast (each
// worker's Result call returns the context error immediately), so a
// cancelled prefetch drains its pool within one simulation's
// cancellation latency.
func (r *Runner) Prefetch(ctx context.Context, pairs []Pair) error {
	workers := r.workerCount()
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		for _, p := range pairs {
			if _, err := r.Result(ctx, p.Program, p.Allocator); err != nil {
				return err
			}
		}
		return nil
	}
	work := make(chan Pair)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for p := range work {
				if _, err := r.Result(ctx, p.Program, p.Allocator); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, p := range pairs {
		work <- p
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) note() string {
	return fmt.Sprintf("synthetic workloads at scale 1/%d, seed %d, miss penalty %d cycles; absolute values are model estimates — compare shapes with the paper", r.Scale, r.Seed, r.Penalty)
}

// Experiment pairs an ID with the function producing its table. Run
// takes the caller's context: assembly aborts between (and, through
// Result, inside) simulations when it is done.
type Experiment struct {
	ID   string
	Run  func(context.Context) (*Table, error)
	Desc string
}

// Experiments lists every reproduced table and figure in paper order.
func (r *Runner) Experiments() []Experiment {
	return []Experiment{
		{"table1", r.Table1, "test program descriptions"},
		{"table2", r.Table2, "test program performance information (FIRSTFIT baseline)"},
		{"figure1", r.Figure1, "percent of time in malloc and free"},
		{"figure2", r.Figure2, "page fault rate for GhostScript vs memory size"},
		{"figure3", r.Figure3, "page fault rate for PTC vs memory size"},
		{"figure4", r.Figure4, "normalized execution time, 16K direct-mapped cache"},
		{"figure5", r.Figure5, "normalized execution time, 64K direct-mapped cache"},
		{"table3", r.Table3, "characteristics of GhostScript input sets"},
		{"figure6", r.Figure6, "GS-Small data cache miss rate vs cache size"},
		{"figure7", r.Figure7, "GS-Medium data cache miss rate vs cache size"},
		{"figure8", r.Figure8, "GS-Large data cache miss rate vs cache size"},
		{"table4", r.Table4, "estimated execution and miss time, 16K cache"},
		{"table5", r.Table5, "estimated execution and miss time, 64K cache"},
		{"table6", r.Table6, "effect of boundary tags on GNU LOCAL, 64K cache"},
		{"figure9", r.Figure9, "size-mapping array architecture ablation"},
		{"modern", r.Modern, "modern allocators vs paper baselines"},
		{"server", r.Server, "concurrent server workload: true/false sharing by allocator"},
	}
}

// AllExperiments returns the paper's experiments followed by the
// extension studies (see extensions.go).
func (r *Runner) AllExperiments() []Experiment {
	return append(r.Experiments(), r.extensions()...)
}

// PairsFor returns the (program, allocator) simulations the given paper
// experiments draw on, deduplicated in first-use order. Extension
// experiments run their own ad-hoc simulations and contribute nothing.
func (r *Runner) PairsFor(ids ...string) []Pair {
	seen := map[Pair]bool{}
	var out []Pair
	add := func(progs []workload.Program, allocs ...string) {
		for _, p := range progs {
			for _, a := range allocs {
				pair := Pair{p.Name, a}
				if !seen[pair] {
					seen[pair] = true
					out = append(out, pair)
				}
			}
		}
	}
	one := func(name string) []workload.Program {
		p, ok := workload.ByName(name)
		if !ok {
			return nil
		}
		return []workload.Program{p}
	}
	for _, id := range ids {
		switch id {
		case "table2":
			add(workload.PaperPrograms(), "firstfit")
		case "table3":
			add(workload.GhostScriptInputs(), "firstfit")
		case "figure1", "figure4", "figure5", "table4", "table5":
			add(workload.PaperPrograms(), Allocators...)
		case "figure2":
			add(one("gs"), Allocators...)
		case "figure3":
			add(one("ptc"), Allocators...)
		case "figure6":
			add(one("gs-small"), Allocators...)
		case "figure7":
			add(one("gs-medium"), Allocators...)
		case "figure8":
			add(one("gs"), Allocators...)
		case "table6":
			add(workload.PaperPrograms(), "gnulocal-tags", "gnulocal")
		case "figure9":
			add(append(one("gawk"), one("espresso")...),
				"bsd", "quickfit", "custom-pow2", "custom", "custom-reclaim")
		case "modern":
			for _, p := range modernPrograms {
				add(one(p), ModernAllocators...)
			}
		case "server":
			// The server scenario is not in the Program catalog; pair it
			// with every registered allocator directly.
			for _, a := range alloc.Names() {
				pair := Pair{serverScenario, a}
				if !seen[pair] {
					seen[pair] = true
					out = append(out, pair)
				}
			}
		}
	}
	return out
}

// PaperPairs returns the full simulation matrix behind the paper's
// tables and figures.
func (r *Runner) PaperPairs() []Pair {
	var ids []string
	for _, e := range r.Experiments() {
		ids = append(ids, e.ID)
	}
	return r.PairsFor(ids...)
}

// RunAll executes every paper experiment (not the extensions),
// returning tables in paper order. The underlying simulation matrix is
// prefetched through the Workers-bounded pool first, so independent
// (program, allocator) runs use all cores; table assembly then proceeds
// sequentially from the memo, keeping the output byte-identical to a
// Workers=1 run. A done ctx aborts both phases promptly.
func (r *Runner) RunAll(ctx context.Context) ([]*Table, error) {
	if err := r.Prefetch(ctx, r.PaperPairs()); err != nil {
		return nil, err
	}
	var out []*Table
	for _, e := range r.Experiments() {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, context.Cause(ctx))
		}
		t, err := e.Run(ctx)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Names returns every experiment ID in order, extensions included.
func (r *Runner) Names() []string {
	var out []string
	for _, e := range r.AllExperiments() {
		out = append(out, e.ID)
	}
	return out
}

// ByID finds one experiment (paper or extension).
func (r *Runner) ByID(id string) (Experiment, bool) {
	for _, e := range r.AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sortedMemoKeys aids deterministic debugging output.
func (r *Runner) sortedMemoKeys() []string {
	keys := make([]string, 0, len(r.memo))
	for k := range r.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
