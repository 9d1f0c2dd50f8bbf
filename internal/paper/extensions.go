package paper

// Extension experiments beyond the paper's own tables and figures, each
// anchored in a direction the paper itself raises:
//
//   - ext-penalty: §4.4 — "if cache miss penalties increase
//     dramatically, the added CPU overhead required to obtain the
//     marginal increase in locality may then be warranted". Sweeps the
//     miss penalty from the paper's 25 cycles to Mogul & Borg's 200 and
//     beyond, finding where GNU LOCAL's trade flips.
//   - ext-victim: the paper's reference [11] (Jouppi) proposes victim
//     caches for exactly the conflict misses the allocators induce;
//     how much of FIRSTFIT's pathology does a small victim buffer absorb?
//   - ext-flush: §3.2 — the paper "intentionally avoid[s] introducing
//     the effects of intermittent cache flushes"; this experiment adds
//     them back (context switches à la Mogul & Borg).
//   - ext-tlb: the third locality level — fully-associative TLBs, read
//     off the LRU page curve.
//   - ext-lifetime: §5.1 future work — lifetime-prediction-guided
//     segregation (Barrett & Zorn) versus the plain §4.4 architecture.
//   - ext-seqfit: Standish's sequential-fit family (first fit / best
//     fit / address-ordered / head-scan) compared on equal footing.

import (
	"context"
	"fmt"

	"mallocsim/internal/apps"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/sim"
	"mallocsim/internal/trace"
	"mallocsim/internal/workload"

	"mallocsim/internal/alloc"
)

// The allocators of the two extensions that read memoized pairs, and
// ext-seeds' workload seeds, whose seed equal to the Runner's reads the
// gs-small pairs; PairsFor lists the same pairs.
var (
	penaltyAllocators = []string{"firstfit", "bsd", "quickfit", "gnulocal"}
	seqfitAllocators  = []string{"firstfit", "firstfit-norover", "firstfit-addrorder", "firstfit-nocoalesce", "bestfit"}
	sweepSeeds        = []uint64{1, 2, 3, 4, 5}
)

// extensions returns the extension experiment index.
func (r *Runner) extensions() []Experiment {
	return []Experiment{
		{"ext-penalty", r.ExtPenaltySweep, "miss-penalty sweep: where does GNU LOCAL start to win?"},
		{"ext-victim", r.ExtVictimCache, "Jouppi victim cache vs allocator conflict misses"},
		{"ext-flush", r.ExtCacheFlush, "context-switch cache flushes (the effect §3.2 excludes)"},
		{"ext-tlb", r.ExtTLB, "TLB miss rates per allocator (64-entry fully associative)"},
		{"ext-lifetime", r.ExtLifetime, "lifetime-predicted segregation (§5.1 future work)"},
		{"ext-seqfit", r.ExtSequentialFits, "the sequential-fit family: first/best/address-ordered fit"},
		{"ext-taxonomy", r.ExtTaxonomy, "Standish's three allocator families compared (§2.1)"},
		{"ext-hierarchy", r.ExtHierarchy, "two-level cache (Mogul & Borg: 200-cycle L2 miss)"},
		{"ext-linesize", r.ExtLineSize, "cache line size sweep (Smith [21]: hardware prefetching)"},
		{"ext-apps", r.ExtApps, "real pointer-chasing kernels in simulated memory, per allocator"},
		{"ext-frag", r.ExtFragmentation, "space overhead over time (heap bytes per live payload byte)"},
		{"ext-seeds", r.ExtSeedSensitivity, "seed sensitivity: do the orderings hold across workload seeds?"},
	}
}

// ExtSeedSensitivity reruns the 16 K GS-Small cache experiment across
// several workload seeds. The paper's tooling was deterministic and
// needed no averaging; our synthetic workloads are deterministic too,
// but parameterized by a seed — this experiment shows the paper-shape
// conclusions are not artifacts of one draw. At the Runner's own seed
// it reads the memoized gs-small pairs (figure6's), whose cache group
// holds the 16 K cache; every other seed runs one bundle.
func (r *Runner) ExtSeedSensitivity(ctx context.Context) (*Table, error) {
	allocs := Allocators
	seeds := sweepSeeds
	t := &Table{
		ID:     "ext-seeds",
		Title:  "GS-Small 16K miss rate (%) across workload seeds (min / mean / max)",
		Note:   r.note(),
		Header: []string{"Allocator", "min", "mean", "max", "worst-of-5?"},
	}
	// rates[allocator][seed index]
	rates := make(map[string][]float64)
	for _, seed := range seeds {
		var results []*sim.Result
		var err error
		if seed == r.Seed {
			results, err = r.results(ctx, "gs-small", allocs)
		} else {
			results, err = r.bundle(ctx, "ext-seeds", "gs-small", allocs, sim.Config{
				Seed:   seed,
				Caches: []cache.Config{{Size: 16 << 10}},
			})
		}
		if err != nil {
			return nil, err
		}
		for i, a := range allocs {
			c, _ := results[i].CacheResult(16 << 10)
			rates[a] = append(rates[a], c.MissRate()*100)
		}
	}
	// Per seed, which allocator had the worst miss rate?
	worstCount := make(map[string]int)
	for i := range seeds {
		worst, worstRate := "", -1.0
		for _, a := range allocs {
			if rates[a][i] > worstRate {
				worst, worstRate = a, rates[a][i]
			}
		}
		worstCount[worst]++
	}
	for _, a := range allocs {
		min, max, sum := rates[a][0], rates[a][0], 0.0
		for _, v := range rates[a] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		t.AddRow(a, f3(min), f3(sum/float64(len(rates[a]))), f3(max),
			fmt.Sprintf("%d/%d", worstCount[a], len(seeds)))
	}
	return t, nil
}

// ExtFragmentation tracks each allocator's space overhead — heap bytes
// requested from the OS per live payload byte — over the course of an
// espresso run, quantifying the paper's §4.1 space-efficiency axis as
// a time series: does fragmentation converge or keep growing?
func (r *Runner) ExtFragmentation(ctx context.Context) (*Table, error) {
	allocs := []string{"firstfit", "firstfit-addrorder", "bsd", "buddy", "fibbuddy", "quickfit", "custom"}
	t := &Table{
		ID:     "ext-frag",
		Title:  "Espresso space overhead over time (heap bytes per live payload byte)",
		Note:   r.note(),
		Header: append([]string{"Run fraction"}, allocs...),
	}
	// sim does not forward SampleEvery, so the workload drives bare lanes.
	prog, _ := workload.ByName("espresso")
	lanes := make([]workload.Lane, len(allocs))
	for i, a := range allocs {
		m := mem.New(trace.Discard, &cost.Meter{})
		inst, err := alloc.New(a, m)
		if err != nil {
			return nil, err
		}
		lanes[i] = workload.Lane{Mem: m, Alloc: inst}
	}
	stats, errs := workload.RunBundle(ctx, lanes, workload.Config{
		Program:     prog,
		Scale:       r.Scale,
		Seed:        r.Seed,
		SampleEvery: prog.Allocs/r.Scale/20 + 1,
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for i := range allocs {
			s := stats[i].Samples
			idx := int(float64(len(s)-1) * frac)
			row = append(row, fmt.Sprintf("%.2f", s[idx].Overhead()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExtApps runs the benchmark kernels of package apps — real programs
// computing in simulated memory — under each allocator, reporting the
// malloc+free instruction share, heap footprint and 16 K miss rate.
// The checksum column is the end-to-end correctness oracle: it must be
// identical down each app's row. The (kernel, allocator) cells share
// nothing, so they run as jobs on the Workers pool; errors and checksum
// mismatches are reported in (kernel, allocator) order, as a sequential
// sweep would meet them.
func (r *Runner) ExtApps(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "ext-apps",
		Title:  "Pointer-chasing kernels (simulated-memory programs): per allocator malloc+free % / heap KB / 16K miss %",
		Note:   "kernel size scales with 1/scale; checksums verified identical across allocators",
		Header: append([]string{"Kernel"}, Allocators...),
	}
	size := int(60000 / r.Scale)
	if size < 200 {
		size = 200
	}
	kernels := apps.Names()
	cells := make([]appCell, len(kernels)*len(Allocators))
	r.forEach(len(cells), func(i int) {
		cells[i] = runAppCell(ctx, kernels[i/len(Allocators)], Allocators[i%len(Allocators)], size, r.Seed)
	})
	for k, appName := range kernels {
		row := []string{appName}
		want := cells[k*len(Allocators)].sum
		for i, allocName := range Allocators {
			c := cells[k*len(Allocators)+i]
			if c.err != nil {
				return nil, c.err
			}
			if c.sum != want {
				return nil, fmt.Errorf("ext-apps %s: checksum mismatch under %s (%#x vs %#x)",
					appName, allocName, c.sum, want)
			}
			row = append(row, c.text)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// appCell is one (kernel, allocator) cell of ext-apps: the kernel's
// checksum and the rendered cell, or the error that stopped it.
type appCell struct {
	sum  uint64
	text string
	err  error
}

// runAppCell runs one kernel under one allocator on a fresh memory with
// a 16 K cache (a one-member group, so it takes the batched blocks). A
// done ctx fails the cell before it starts.
func runAppCell(ctx context.Context, appName, allocName string, size int, seed uint64) appCell {
	if err := ctx.Err(); err != nil {
		return appCell{err: fmt.Errorf("ext-apps: %w", context.Cause(ctx))}
	}
	app, _ := apps.Get(appName)
	meter := &cost.Meter{}
	c16 := cache.NewGroup(cache.Config{Size: 16 << 10})
	m := mem.New(c16, meter)
	m.SetBatching(0)
	a, err := alloc.New(allocName, m)
	if err != nil {
		return appCell{err: err}
	}
	sum, err := app.Run(apps.NewCtx(m, a, seed), size)
	if err != nil {
		return appCell{err: fmt.Errorf("ext-apps %s/%s: %w", appName, allocName, err)}
	}
	m.Flush()
	return appCell{sum: sum, text: fmt.Sprintf("%.1f/%s/%.2f",
		meter.AllocFraction()*100, kb(m.Footprint()), c16.Results()[0].MissRate()*100)}
}

// ExtHierarchy evaluates the allocators under the two-level hierarchy
// the paper cites from Mogul & Borg: a small L1 backed by a large L2
// with a 200-cycle memory penalty. Reported: L1 and global miss rates,
// write-back traffic, and estimated time under the deep-hierarchy
// stall model — the future regime the paper argues will reward GNU
// LOCAL's locality engineering.
func (r *Runner) ExtHierarchy(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "ext-hierarchy",
		Title:  "GS-Small on a two-level hierarchy (16K direct L1, 256K 2-way L2, 12/200-cycle service): L1 miss % / global miss % / writebacks per Kref / est. sec",
		Note:   r.note(),
		Header: []string{"Allocator", "L1 miss", "global miss", "wb/Kref", "est sec"},
	}
	hs := make([]*cache.Hierarchy, len(Allocators))
	results, err := r.bundle(ctx, "ext-hierarchy", "gs-small", Allocators, sim.Config{
		Sinks: func(lane int) []trace.Sink {
			hs[lane] = cache.NewHierarchy(
				cache.Config{Size: 16 << 10},
				cache.Config{Size: 256 << 10, Assoc: 2},
			)
			return []trace.Sink{hs[lane]}
		},
	})
	if err != nil {
		return nil, err
	}
	for i, a := range Allocators {
		h, res := hs[i], results[i]
		secs := res.Seconds(res.Instr.Total() + h.StallCycles())
		wb := float64(h.L1.Writebacks()+h.L2.Writebacks()) / float64(h.Accesses()) * 1000
		t.AddRow(a,
			f3(h.L1MissRate()*100),
			f3(h.GlobalMissRate()*100),
			fmt.Sprintf("%.1f", wb),
			fmt.Sprintf("%.1f", secs))
	}
	return t, nil
}

// ExtLineSize sweeps the cache block size at fixed 16 K capacity. The
// paper's §4.2 notes that prefetching "usually arises when cache lines
// contain multiple words — referencing one word automatically brings
// other words into the cache" (Smith); longer lines reward allocators
// that pack related data densely and punish metadata pollution.
func (r *Runner) ExtLineSize(ctx context.Context) (*Table, error) {
	lineSizes := []uint64{16, 32, 64, 128}
	t := &Table{
		ID:     "ext-linesize",
		Title:  "GS-Small 16K direct-mapped miss rate (%) vs line size",
		Note:   r.note(),
		Header: []string{"Allocator", "16B", "32B", "64B", "128B"},
	}
	// A cache.Group shares one line size, so each size is a one-member
	// group of its own.
	groups := make([][]*cache.Group, len(Allocators))
	_, err := r.bundle(ctx, "ext-linesize", "gs-small", Allocators, sim.Config{
		Sinks: func(lane int) []trace.Sink {
			var sinks []trace.Sink
			for _, ls := range lineSizes {
				g := cache.NewGroup(cache.Config{Size: 16 << 10, LineSize: ls})
				groups[lane] = append(groups[lane], g)
				sinks = append(sinks, g)
			}
			return sinks
		},
	})
	if err != nil {
		return nil, err
	}
	for i, a := range Allocators {
		row := []string{a}
		for _, g := range groups[i] {
			row = append(row, f3(g.Results()[0].MissRate()*100))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExtTaxonomy compares one representative of each category in
// Standish's taxonomy (§2.1) — sequential fit, buddy system and
// segregated storage — plus the paper's recommended architecture, on
// the paper's metrics. The paper evaluates only the first and third
// families; the binary buddy implementation completes the picture.
func (r *Runner) ExtTaxonomy(ctx context.Context) (*Table, error) {
	allocs := []string{"firstfit", "buddy", "fibbuddy", "quickfit", "custom"}
	labels := []string{"sequential (firstfit)", "buddy (binary)", "buddy (Fibonacci)", "segregated (quickfit)", "recommended (custom)"}
	t := &Table{
		ID:     "ext-taxonomy",
		Title:  "Standish's allocator taxonomy on espresso: malloc+free % / heap KB / 16K miss % / faults-per-Mref at half memory",
		Note:   r.note(),
		Header: append([]string{"Metric"}, labels...),
	}
	results, err := r.bundle(ctx, "ext-taxonomy", "espresso", allocs, sim.Config{
		Caches:  []cache.Config{{Size: 16 << 10}},
		PageSim: true,
	})
	if err != nil {
		return nil, err
	}
	addMetric(t, results, "malloc+free (% time)", func(r *sim.Result) string { return f2(r.AllocFraction() * 100) })
	addMetric(t, results, "heap (KB)", func(r *sim.Result) string { return kb(r.Footprint) })
	addMetric(t, results, "16K miss (%)", func(r *sim.Result) string { return f3(r.Caches[0].MissRate() * 100) })
	addMetric(t, results, "faults/Mref @ half mem", func(r *sim.Result) string {
		return fmt.Sprintf("%.1f", halfMemFaultRate(r)*1e6)
	})
	return t, nil
}

// ExtPenaltySweep recomputes the paper's execution-time model across
// miss penalties. It reuses the memoized runs: the penalty enters only
// the analytical T = I + M·P·D step.
func (r *Runner) ExtPenaltySweep(ctx context.Context) (*Table, error) {
	const cacheSize = 64 << 10
	allocs := penaltyAllocators
	penalties := []uint64{10, 25, 50, 100, 200, 400}
	t := &Table{
		ID:     "ext-penalty",
		Title:  "Estimated GhostScript time (sec) vs miss penalty, 64K cache — the §4.4 crossover",
		Note:   r.note(),
		Header: append([]string{"Penalty (cycles)"}, append(append([]string{}, allocs...), "winner")...),
	}
	for _, p := range penalties {
		row := []string{fmt.Sprintf("%d", p)}
		best, bestTime := "", 0.0
		for _, a := range allocs {
			res, err := r.Result(ctx, "gs", a)
			if err != nil {
				return nil, err
			}
			secs := res.Seconds(res.TotalCycles(cacheSize, p))
			row = append(row, fmt.Sprintf("%.1f", secs))
			if best == "" || secs < bestTime {
				best, bestTime = a, secs
			}
		}
		row = append(row, best)
		t.AddRow(row...)
	}
	return t, nil
}

// bundle runs progName once for all of allocs as one sim.RunBundle, for
// the extension table id. cfg names the caches, the paging, the extra
// sinks and, when not the Runner's, the seed; bundle fills in the
// program, the scale and CheckHeap. It returns the results in allocs
// order, or the first lane error. Under CheckHeap each result is
// memoized under "id:program/allocator@seed", so ShadowSnapshots
// reports its verdict.
func (r *Runner) bundle(ctx context.Context, id, progName string, allocs []string, cfg sim.Config) ([]*sim.Result, error) {
	prog, ok := workload.ByName(progName)
	if !ok {
		return nil, fmt.Errorf("paper: unknown program %q", progName)
	}
	cfg.Program, cfg.Scale, cfg.CheckHeap = prog, r.Scale, r.CheckHeap
	if cfg.Seed == 0 {
		cfg.Seed = r.Seed
	}
	results, errs := sim.RunBundle(ctx, cfg, allocs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if r.CheckHeap {
		r.mu.Lock()
		for i, res := range results {
			r.memo[fmt.Sprintf("%s:%s/%s@%d", id, progName, allocs[i], cfg.Seed)] = res
		}
		r.mu.Unlock()
	}
	return results, nil
}

// results returns the memoized pair of progName with each of allocs, in
// order, or the first error.
func (r *Runner) results(ctx context.Context, progName string, allocs []string) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(allocs))
	for i, a := range allocs {
		res, err := r.Result(ctx, progName, a)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// addMetric adds the row name with f of each result.
func addMetric(t *Table, results []*sim.Result, name string, f func(*sim.Result) string) {
	cells := []string{name}
	for _, res := range results {
		cells = append(cells, f(res))
	}
	t.AddRow(cells...)
}

// halfMemFaultRate is the run's page-fault rate with half the memory
// its LRU stack needs to hold every page (at least one page).
func halfMemFaultRate(res *sim.Result) float64 {
	return res.Curve.FaultRate(max(res.Curve.MinResidentPages()/2, 1))
}

// ExtVictimCache compares a plain 16 K direct-mapped cache against the
// same cache with a 4-entry victim buffer and against a 2-way cache of
// equal size, per allocator.
func (r *Runner) ExtVictimCache(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "ext-victim",
		Title:  "GS-Small 16K cache: plain vs +4-entry victim buffer vs 2-way (miss %)",
		Note:   r.note(),
		Header: []string{"Allocator", "direct", "victim", "rescued", "2-way"},
	}
	victims := make([]*cache.VictimCache, len(Allocators))
	results, err := r.bundle(ctx, "ext-victim", "gs-small", Allocators, sim.Config{
		Caches: []cache.Config{{Size: 16 << 10}, {Size: 16 << 10, Assoc: 2}},
		Sinks: func(lane int) []trace.Sink {
			victims[lane] = cache.NewVictim(cache.Config{Size: 16 << 10}, 4)
			return []trace.Sink{victims[lane]}
		},
	})
	if err != nil {
		return nil, err
	}
	for i, a := range Allocators {
		plain, twoWay, victim := results[i].Caches[0], results[i].Caches[1], victims[i]
		rescued := 0.0
		if plain.Misses > 0 {
			rescued = float64(victim.VictimHits()) / float64(plain.Misses)
		}
		t.AddRow(a,
			f3(plain.MissRate()*100),
			f3(victim.MissRate()*100),
			pct(rescued),
			f3(twoWay.MissRate()*100))
	}
	return t, nil
}

// ExtCacheFlush adds periodic whole-cache invalidations, modelling the
// context-switch interference the paper excluded.
func (r *Runner) ExtCacheFlush(ctx context.Context) (*Table, error) {
	intervals := []uint64{0, 1 << 20, 1 << 17, 1 << 14}
	t := &Table{
		ID:     "ext-flush",
		Title:  "GS-Small 64K miss rate (%) under periodic cache flushes (context switches)",
		Note:   r.note(),
		Header: []string{"Allocator", "no flush", "every 1M refs", "every 128K", "every 16K"},
	}
	caches := make([]cache.Config, len(intervals))
	for i, iv := range intervals {
		caches[i] = cache.Config{Size: 64 << 10, FlushInterval: iv}
	}
	allocs := []string{"firstfit", "quickfit", "gnulocal"}
	results, err := r.bundle(ctx, "ext-flush", "gs-small", allocs, sim.Config{Caches: caches})
	if err != nil {
		return nil, err
	}
	for i, a := range allocs {
		row := []string{a}
		for _, c := range results[i].Caches {
			row = append(row, f3(c.MissRate()*100))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExtTLB measures TLB locality. A fully-associative LRU TLB of N
// entries misses exactly on the references whose LRU page stack
// distance is N or more (the inclusion property, Mattson et al. 1970),
// so its miss rate is the page curve's fault rate at N pages.
func (r *Runner) ExtTLB(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "ext-tlb",
		Title:  "TLB miss rate (%) per allocator, espresso (fully associative, 4 KB pages)",
		Note:   r.note(),
		Header: []string{"Allocator", "8-entry", "16-entry", "64-entry"},
	}
	results, err := r.bundle(ctx, "ext-tlb", "espresso", Allocators, sim.Config{PageSim: true})
	if err != nil {
		return nil, err
	}
	for i, a := range Allocators {
		row := []string{a}
		for _, n := range []uint64{8, 16, 64} {
			row = append(row, f3(results[i].Curve.FaultRate(n)*100))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExtLifetime compares the lifetime-segregated allocator against the
// plain recommended architecture and BSD on footprint, paging and
// cache behaviour.
func (r *Runner) ExtLifetime(ctx context.Context) (*Table, error) {
	allocs := []string{"bsd", "custom", "lifetime"}
	t := &Table{
		ID:     "ext-lifetime",
		Title:  "Lifetime-predicted segregation on espresso: heap KB / faults-per-Mref at half memory / 16K miss %",
		Note:   r.note(),
		Header: append([]string{"Metric"}, allocs...),
	}
	results, err := r.bundle(ctx, "ext-lifetime", "espresso", allocs, sim.Config{
		Caches:  []cache.Config{{Size: 16 << 10}},
		PageSim: true,
	})
	if err != nil {
		return nil, err
	}
	addMetric(t, results, "heap (KB)", func(r *sim.Result) string { return fmt.Sprintf("%d", (r.Footprint+1023)/1024) })
	addMetric(t, results, "faults/Mref @ half mem", func(r *sim.Result) string {
		return fmt.Sprintf("%.1f", halfMemFaultRate(r)*1e6)
	})
	addMetric(t, results, "16K miss rate (%)", func(r *sim.Result) string { return f3(r.Caches[0].MissRate() * 100) })
	return t, nil
}

// ExtSequentialFits compares the sequential-fit family the paper's §2.1
// taxonomy names, on espresso.
func (r *Runner) ExtSequentialFits(ctx context.Context) (*Table, error) {
	allocs := seqfitAllocators
	t := &Table{
		ID:     "ext-seqfit",
		Title:  "Sequential-fit family on espresso: malloc+free % / heap KB / 16K miss % / 64K miss %",
		Note:   r.note(),
		Header: append([]string{"Metric"}, allocs...),
	}
	// The 16 K and 64 K caches are members of every pair's cache group.
	results, err := r.results(ctx, "espresso", allocs)
	if err != nil {
		return nil, err
	}
	addMetric(t, results, "malloc+free (% time)", func(r *sim.Result) string { return f2(r.AllocFraction() * 100) })
	addMetric(t, results, "heap (KB)", func(r *sim.Result) string { return kb(r.Footprint) })
	addMetric(t, results, "16K miss (%)", func(r *sim.Result) string {
		c, _ := r.CacheResult(16 << 10)
		return f3(c.MissRate() * 100)
	})
	addMetric(t, results, "64K miss (%)", func(r *sim.Result) string {
		c, _ := r.CacheResult(64 << 10)
		return f3(c.MissRate() * 100)
	})
	return t, nil
}
