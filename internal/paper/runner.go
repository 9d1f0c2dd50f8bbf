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
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	Scale uint64
	Seed  uint64

	// Workers bounds the worker pool, which runs Prefetch's bundles and
	// then Tables' table jobs, and with it how Prefetch bundles
	// allocators: a catalog program's N allocators are dealt into
	// min(Workers, N) bundles, so synthesis is shared only while
	// Workers < N, and a bundle holds about N/Workers pipelines at once.
	// The server scenario's are dealt into at least ⌈N/2⌉ bundles, so
	// its bundles hold at most two pipelines at any width. 0 means
	// GOMAXPROCS; 1 runs one bundle per catalog program, and then one
	// table at a time. The results are byte-identical at every width and
	// bundle size — only wall-clock and memory change.
	Workers int

	// CheckHeap runs every simulation that goes through sim, the
	// extensions' included, under the shadow heap auditor
	// (sim.Config.CheckHeap). The auditor is host-side only, so all
	// metrics stay byte-identical; violations are collected per run and
	// aggregated by ShadowSnapshots.
	CheckHeap bool

	mu sync.Mutex
	// memo holds each pair's result under "program/allocator" and, under
	// CheckHeap, each extension run's under "table:program/allocator@seed".
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
// executing it if needed as a bundle of one. Safe for concurrent use:
// duplicate concurrent calls for one key share a single simulation. A
// done context aborts promptly — the running simulation polls ctx in
// its step loop, and a caller waiting on another caller's in-flight run
// stops waiting when its own ctx is done (the flight itself keeps the
// context it was started under).
func (r *Runner) Result(ctx context.Context, progName, allocName string) (*sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("paper: %s/%s: %w", progName, allocName, context.Cause(ctx))
	}
	// Table assembly asks for every cell's pair, so a memoized pair is
	// one lookup, without simulate's per-call slices.
	r.mu.Lock()
	res, ok := r.memo[progName+"/"+allocName]
	r.mu.Unlock()
	if ok {
		return res, nil
	}
	results, errs := r.simulate(ctx, progName, []string{allocName})
	return results[0], errs[0]
}

// simulate returns progName's run and error for each of allocs, in
// order, through the memo's single-flight protocol: a memoized pair is
// looked up, a pair another caller is running is awaited, and the rest
// are registered in flight and then simulated together as one bundle,
// which synthesizes the program once for all of them. Only successes
// are memoized.
func (r *Runner) simulate(ctx context.Context, progName string, allocs []string) ([]*sim.Result, []error) {
	results := make([]*sim.Result, len(allocs))
	errs := make([]error, len(allocs))
	flights := make([]*flight, len(allocs))
	var mine []string // the allocators this call simulates
	var at []int      // their positions in allocs
	r.mu.Lock()
	for i, a := range allocs {
		key := progName + "/" + a
		if res, ok := r.memo[key]; ok {
			results[i] = res
			continue
		}
		f, ok := r.inflight[key]
		if !ok {
			f = &flight{done: make(chan struct{})}
			r.inflight[key] = f
			mine, at = append(mine, a), append(at, i)
		}
		flights[i] = f
	}
	r.mu.Unlock()

	if len(mine) > 0 {
		res, rerrs := r.runBundle(ctx, progName, mine)
		r.mu.Lock()
		for k, i := range at {
			f := flights[i]
			f.res, f.err = res[k], rerrs[k]
			key := progName + "/" + mine[k]
			if f.err == nil {
				r.memo[key] = f.res
			}
			delete(r.inflight, key)
			close(f.done)
			results[i], errs[i], flights[i] = f.res, f.err, nil
		}
		r.mu.Unlock()
	}
	for i, f := range flights {
		if f == nil {
			continue
		}
		select {
		case <-f.done:
			results[i], errs[i] = f.res, f.err
		case <-ctx.Done():
			errs[i] = fmt.Errorf("paper: %s/%s: %w", progName, allocs[i], context.Cause(ctx))
		}
	}
	return results, errs
}

// runBundle executes one fully-instrumented simulation of progName for
// all of allocs (sim.RunBundle). progName may name either a sequential
// program (workload.ByName) or a concurrent server scenario
// (workload.ServerByName); the two catalogs share a namespace.
func (r *Runner) runBundle(ctx context.Context, progName string, allocs []string) ([]*sim.Result, []error) {
	cfgs := make([]cache.Config, len(CacheSizes))
	for i, s := range CacheSizes {
		cfgs[i] = cache.Config{Size: s}
	}
	cfg := sim.Config{
		Scale:     r.Scale,
		Seed:      r.Seed,
		Caches:    cfgs,
		CheckHeap: r.CheckHeap,
	}
	if srv, ok := workload.ServerByName(progName); ok {
		cfg.Server = &srv
	} else if prog, ok := workload.ByName(progName); ok {
		cfg.Program = prog
		cfg.PageSim = pageSimPrograms[progName]
	} else {
		errs := make([]error, len(allocs))
		for i := range errs {
			errs[i] = fmt.Errorf("paper: unknown program %q", progName)
		}
		return make([]*sim.Result, len(allocs)), errs
	}
	return sim.RunBundle(ctx, cfg, allocs)
}

// ShadowSnapshots returns the heap-auditor verdicts of every memoized
// run, keyed as the memo keys them, plus the total violation count.
// Empty unless the Runner was configured with CheckHeap.
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
// pure lookup. Already-memoized pairs cost nothing, and duplicates run
// once. Pairs of one catalog program run as bundles (sim.RunBundle):
// the program's N allocators are dealt into min(Workers, N) bundles of
// near-equal size, and each bundle synthesizes the program once for
// all of its allocators — so bundles share work only while Workers is
// below N, and at Workers >= N every pair runs alone. A server
// scenario's lanes each hold a sharing attributor beside the cache
// group, so its allocators are dealt into more bundles where needed to
// keep each to serverBundleLanes. Every pair of a job is registered in
// flight before its bundle starts, so a concurrent Result for it waits
// instead of simulating again.
//
// Prefetch runs every job, at any width including 1, and then returns
// the first error in plan order (programs by first use); failed pairs
// are not memoized. Every lane is hermetic, so results are
// byte-identical to executing the pairs one by one through Result. A
// done ctx makes the remaining pairs fail fast, so a cancelled prefetch
// drains its pool within one simulation's cancellation latency.
func (r *Runner) Prefetch(ctx context.Context, pairs []Pair) error {
	jobs := r.plan(pairs)
	errs := make([][]error, len(jobs))
	r.forEach(len(jobs), func(i int) {
		_, errs[i] = r.simulate(ctx, jobs[i].program, jobs[i].allocs)
	})
	for _, jerrs := range errs {
		for _, err := range jerrs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// forEach calls fn(i) for every i in [0, n) on a pool of at most Workers
// goroutines, handing the indexes out in order, and returns when every
// call has returned.
func (r *Runner) forEach(n int, fn func(i int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(r.workerCount(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// job is one unit of Prefetch's pool: a bundle of one program's
// allocators.
type job struct {
	program string
	allocs  []string
}

// serverBundleLanes caps the lanes of a server-scenario bundle. A
// server lane holds a lot of sink state (its sharing attributor, the
// five-cache group, its heap pages) next to the synthesis a bundle
// shares, so wide bundles do not pay. On a 2-vCPU host at Workers 2,
// the server experiment's prefetch ran about 1.17× as fast with
// bundles of at most two as with lone pairs, in less peak memory;
// three lanes ran no faster (1.18×) and four slower (1.13×), and each
// peaked 1–2 MB higher than two.
const serverBundleLanes = 2

// plan deduplicates pairs, drops the memoized ones and groups the rest
// into jobs, in first-use order: each program's N allocators are dealt
// round-robin into min(workers, N) bundles, and a server scenario's
// into at least ⌈N/serverBundleLanes⌉, so none holds more lanes than
// that.
func (r *Runner) plan(pairs []Pair) []job {
	var groups []*job
	byProg := map[string]*job{}
	seen := map[Pair]bool{}
	r.mu.Lock()
	for _, p := range pairs {
		if seen[p] {
			continue
		}
		seen[p] = true
		if _, ok := r.memo[p.Program+"/"+p.Allocator]; ok {
			continue
		}
		g := byProg[p.Program]
		if g == nil {
			g = &job{program: p.Program}
			byProg[p.Program] = g
			groups = append(groups, g)
		}
		g.allocs = append(g.allocs, p.Allocator)
	}
	r.mu.Unlock()

	workers := r.workerCount()
	var jobs []job
	for _, g := range groups {
		n := min(workers, len(g.allocs))
		if _, server := workload.ServerByName(g.program); server {
			n = max(n, (len(g.allocs)+serverBundleLanes-1)/serverBundleLanes)
		}
		bundles := make([]job, n)
		for i, a := range g.allocs {
			b := &bundles[i%n]
			b.program = g.program
			b.allocs = append(b.allocs, a)
		}
		jobs = append(jobs, bundles...)
	}
	return jobs
}

func (r *Runner) note() string {
	return fmt.Sprintf("synthetic workloads at scale 1/%d, seed %d, miss penalty %d cycles; absolute values are model estimates — compare shapes with the paper", r.Scale, r.Seed, sim.DefaultPenalty)
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

// PairsFor returns the memoized (program, allocator) simulations the
// given experiments draw on, deduplicated in first-use order.
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
		case "ext-penalty":
			add(one("gs"), penaltyAllocators...)
		case "ext-seqfit":
			add(one("espresso"), seqfitAllocators...)
		case "ext-seeds":
			if slices.Contains(sweepSeeds, r.Seed) {
				add(one("gs-small"), Allocators...)
			}
		}
	}
	return out
}

// PaperPairs returns the full simulation matrix behind the paper's
// tables and figures.
func (r *Runner) PaperPairs() []Pair {
	return r.PairsFor(idsOf(r.Experiments())...)
}

// RunAll executes every paper experiment (not the extensions) through
// Tables, returning tables in paper order.
func (r *Runner) RunAll(ctx context.Context) ([]*Table, error) {
	return r.Tables(ctx, idsOf(r.Experiments())...)
}

// ErrUnknownExperiment reports an id that names no experiment.
var ErrUnknownExperiment = errors.New("paper: unknown experiment")

// Tables runs the experiments named by ids, paper or extension, and
// returns their tables in id order. It prefetches every pair they draw
// on (PairsFor), then runs the experiments themselves as jobs on the
// Workers pool. Every table is a function of the Runner's settings
// alone, so the output is byte-identical at any width. An unknown id
// fails before anything runs; otherwise Tables returns Prefetch's error
// or the first table error in id order. A done ctx aborts both phases
// promptly.
func (r *Runner) Tables(ctx context.Context, ids ...string) ([]*Table, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := r.ByID(id)
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
		}
		exps[i] = e
	}
	if err := r.Prefetch(ctx, r.PairsFor(ids...)); err != nil {
		return nil, err
	}
	tables := make([]*Table, len(exps))
	errs := make([]error, len(exps))
	r.forEach(len(exps), func(i int) {
		err := context.Cause(ctx)
		if err == nil {
			tables[i], err = exps[i].Run(ctx)
		}
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// Names returns every experiment ID in order, extensions included.
func (r *Runner) Names() []string { return idsOf(r.AllExperiments()) }

// idsOf returns the experiments' IDs, in order.
func idsOf(exps []Experiment) []string {
	var out []string
	for _, e := range exps {
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
