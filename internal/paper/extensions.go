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
//   - ext-tlb: the third locality level — a fully-associative TLB
//     simulated with the same machinery (page-sized lines).
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
// conclusions are not artifacts of one draw.
func (r *Runner) ExtSeedSensitivity(ctx context.Context) (*Table, error) {
	allocs := []string{"firstfit", "gnufit", "bsd", "gnulocal", "quickfit"}
	seeds := []uint64{1, 2, 3, 4, 5}
	t := &Table{
		ID:     "ext-seeds",
		Title:  "GS-Small 16K miss rate (%) across workload seeds (min / mean / max)",
		Note:   r.note(),
		Header: []string{"Allocator", "min", "mean", "max", "worst-of-5?"},
	}
	// rates[allocator][seed index]
	rates := make(map[string][]float64)
	for _, seed := range seeds {
		for _, a := range allocs {
			prog, _ := workload.ByName("gs-small")
			res, err := sim.RunContext(ctx, sim.Config{
				Program:   prog,
				Allocator: a,
				Scale:     r.Scale,
				Seed:      seed,
				Caches:    []cache.Config{{Size: 16 << 10}},
			})
			if err != nil {
				return nil, err
			}
			rates[a] = append(rates[a], res.Caches[0].MissRate()*100)
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
	prog, _ := workload.ByName("espresso")
	nAllocs := prog.Allocs / r.Scale
	series := make(map[string][]workload.Sample)
	for _, a := range allocs {
		meter := &cost.Meter{}
		m := mem.New(trace.Discard, meter)
		inst, err := alloc.New(a, m)
		if err != nil {
			return nil, err
		}
		stats, err := workload.RunContext(ctx, m, inst, workload.Config{
			Program:     prog,
			Scale:       r.Scale,
			Seed:        r.Seed,
			SampleEvery: nAllocs/20 + 1,
		})
		if err != nil {
			return nil, err
		}
		series[a] = stats.Samples
	}
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for _, a := range allocs {
			s := series[a]
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
// identical down each app's row.
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
	for _, appName := range apps.Names() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ext-apps: %w", context.Cause(ctx))
		}
		app, _ := apps.Get(appName)
		row := []string{appName}
		var want uint64
		for i, allocName := range Allocators {
			// Each iteration replays a whole kernel; poll per allocator so
			// cancellation lands between kernels, not after the full row.
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ext-apps: %w", context.Cause(ctx))
			}
			meter := &cost.Meter{}
			c16 := cache.New(cache.Config{Size: 16 << 10})
			m := mem.New(c16, meter)
			m.SetBatching(0)
			a, err := alloc.New(allocName, m)
			if err != nil {
				return nil, err
			}
			sum, err := app.Run(apps.NewCtx(m, a, r.Seed), size)
			if err != nil {
				return nil, fmt.Errorf("ext-apps %s/%s: %w", appName, allocName, err)
			}
			m.Flush()
			if i == 0 {
				want = sum
			} else if sum != want {
				return nil, fmt.Errorf("ext-apps %s: checksum mismatch under %s (%#x vs %#x)",
					appName, allocName, sum, want)
			}
			row = append(row, fmt.Sprintf("%.1f/%s/%.2f",
				meter.AllocFraction()*100, kb(m.Footprint()), c16.MissRate()*100))
		}
		t.AddRow(row...)
	}
	return t, nil
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
	for _, a := range Allocators {
		h := cache.NewHierarchy(
			cache.Config{Size: 16 << 10},
			cache.Config{Size: 256 << 10, Assoc: 2},
		)
		meter, err := r.extRun(ctx, "gs-small", a, h)
		if err != nil {
			return nil, err
		}
		cycles := meter.Total() + h.StallCycles()
		secs := float64(cycles) * float64(r.Scale) / sim.ClockHz
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
	for _, a := range Allocators {
		caches := make([]*cache.Cache, len(lineSizes))
		sinks := make([]trace.Sink, len(lineSizes))
		for i, ls := range lineSizes {
			caches[i] = cache.New(cache.Config{Size: 16 << 10, LineSize: ls})
			sinks[i] = caches[i]
		}
		if _, err := r.extRun(ctx, "gs-small", a, trace.NewTee(sinks...)); err != nil {
			return nil, err
		}
		row := []string{a}
		for _, c := range caches {
			row = append(row, f3(c.MissRate()*100))
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
	results := map[string]*sim.Result{}
	for _, a := range allocs {
		prog, _ := workload.ByName("espresso")
		res, err := sim.RunContext(ctx, sim.Config{
			Program:   prog,
			Allocator: a,
			Scale:     r.Scale,
			Seed:      r.Seed,
			Caches:    []cache.Config{{Size: 16 << 10}},
			PageSim:   true,
		})
		if err != nil {
			return nil, err
		}
		results[a] = res
	}
	add := func(name string, f func(*sim.Result) string) {
		cells := []string{name}
		for _, a := range allocs {
			cells = append(cells, f(results[a]))
		}
		t.AddRow(cells...)
	}
	add("malloc+free (% time)", func(r *sim.Result) string { return f2(r.AllocFraction() * 100) })
	add("heap (KB)", func(r *sim.Result) string { return kb(r.Footprint) })
	add("16K miss (%)", func(r *sim.Result) string { return f3(r.Caches[0].MissRate() * 100) })
	add("faults/Mref @ half mem", func(res *sim.Result) string {
		half := res.Curve.MinResidentPages() / 2
		if half == 0 {
			half = 1
		}
		return fmt.Sprintf("%.1f", res.Curve.FaultRate(half)*1e6)
	})
	return t, nil
}

// ExtPenaltySweep recomputes the paper's execution-time model across
// miss penalties. It reuses the memoized runs: the penalty enters only
// the analytical T = I + M·P·D step.
func (r *Runner) ExtPenaltySweep(ctx context.Context) (*Table, error) {
	const cacheSize = 64 << 10
	allocs := []string{"firstfit", "bsd", "quickfit", "gnulocal"}
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

// extRun executes one ad-hoc simulation through arbitrary sinks,
// returning the meter. Used by extensions whose instrumentation is not
// expressible as a cache.Config list. Batching is on: block sinks
// (cache.Cache) take columnar blocks, flushed before returning so
// callers may read sink state immediately, and plain sinks
// (cache.VictimCache, cache.Hierarchy) take every reference
// synchronously.
func (r *Runner) extRun(ctx context.Context, progName, allocName string, sink trace.Sink) (*cost.Meter, error) {
	prog, ok := workload.ByName(progName)
	if !ok {
		return nil, fmt.Errorf("paper: unknown program %q", progName)
	}
	meter := &cost.Meter{}
	m := mem.New(sink, meter)
	m.SetBatching(0)
	a, err := alloc.New(allocName, m)
	if err != nil {
		return nil, err
	}
	if _, err := workload.RunContext(ctx, m, a, workload.Config{Program: prog, Scale: r.Scale, Seed: r.Seed}); err != nil {
		return nil, err
	}
	m.Flush()
	return meter, nil
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
	for _, a := range Allocators {
		plain := cache.New(cache.Config{Size: 16 << 10})
		victim := cache.NewVictim(cache.Config{Size: 16 << 10}, 4)
		twoWay := cache.New(cache.Config{Size: 16 << 10, Assoc: 2})
		if _, err := r.extRun(ctx, "gs-small", a, trace.NewTee(plain, victim, twoWay)); err != nil {
			return nil, err
		}
		rescued := 0.0
		if plain.Misses() > 0 {
			rescued = float64(victim.VictimHits()) / float64(plain.Misses())
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
	for _, a := range []string{"firstfit", "quickfit", "gnulocal"} {
		caches := make([]*cache.Cache, len(intervals))
		sinks := make([]trace.Sink, len(intervals))
		for i, iv := range intervals {
			caches[i] = cache.New(cache.Config{Size: 64 << 10, FlushInterval: iv})
			sinks[i] = caches[i]
		}
		if _, err := r.extRun(ctx, "gs-small", a, trace.NewTee(sinks...)); err != nil {
			return nil, err
		}
		row := []string{a}
		for _, c := range caches {
			row = append(row, f3(c.MissRate()*100))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExtTLB measures TLB locality: a fully-associative LRU TLB is a cache
// with page-sized lines, simulated with the existing machinery.
func (r *Runner) ExtTLB(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "ext-tlb",
		Title:  "TLB miss rate (%) per allocator, espresso (fully associative, 4 KB pages)",
		Note:   r.note(),
		Header: []string{"Allocator", "8-entry", "16-entry", "64-entry"},
	}
	entries := []int{8, 16, 64}
	for _, a := range Allocators {
		tlbs := make([]*cache.Cache, len(entries))
		sinks := make([]trace.Sink, len(entries))
		for i, n := range entries {
			tlbs[i] = cache.New(cache.Config{
				Size:     uint64(n) * mem.PageSize,
				LineSize: mem.PageSize,
				Assoc:    n,
			})
			sinks[i] = tlbs[i]
		}
		if _, err := r.extRun(ctx, "espresso", a, trace.NewTee(sinks...)); err != nil {
			return nil, err
		}
		row := []string{a}
		for _, c := range tlbs {
			row = append(row, f3(c.MissRate()*100))
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
	type row struct {
		heapKB uint64
		faults float64
		miss   float64
	}
	rows := map[string]row{}
	for _, a := range allocs {
		prog, _ := workload.ByName("espresso")
		res, err := sim.RunContext(ctx, sim.Config{
			Program:   prog,
			Allocator: a,
			Scale:     r.Scale,
			Seed:      r.Seed,
			Caches:    []cache.Config{{Size: 16 << 10}},
			PageSim:   true,
		})
		if err != nil {
			return nil, err
		}
		half := res.Curve.MinResidentPages() / 2
		if half == 0 {
			half = 1
		}
		rows[a] = row{
			heapKB: (res.Footprint + 1023) / 1024,
			faults: res.Curve.FaultRate(half) * 1e6,
			miss:   res.Caches[0].MissRate() * 100,
		}
	}
	add := func(name string, f func(row) string) {
		cells := []string{name}
		for _, a := range allocs {
			cells = append(cells, f(rows[a]))
		}
		t.AddRow(cells...)
	}
	add("heap (KB)", func(r row) string { return fmt.Sprintf("%d", r.heapKB) })
	add("faults/Mref @ half mem", func(r row) string { return fmt.Sprintf("%.1f", r.faults) })
	add("16K miss rate (%)", func(r row) string { return f3(r.miss) })
	return t, nil
}

// ExtSequentialFits compares the sequential-fit family the paper's §2.1
// taxonomy names, on espresso.
func (r *Runner) ExtSequentialFits(ctx context.Context) (*Table, error) {
	allocs := []string{"firstfit", "firstfit-norover", "firstfit-addrorder", "firstfit-nocoalesce", "bestfit"}
	t := &Table{
		ID:     "ext-seqfit",
		Title:  "Sequential-fit family on espresso: malloc+free % / heap KB / 16K miss % / 64K miss %",
		Note:   r.note(),
		Header: append([]string{"Metric"}, allocs...),
	}
	results := map[string]*sim.Result{}
	for _, a := range allocs {
		prog, _ := workload.ByName("espresso")
		res, err := sim.RunContext(ctx, sim.Config{
			Program:   prog,
			Allocator: a,
			Scale:     r.Scale,
			Seed:      r.Seed,
			Caches:    []cache.Config{{Size: 16 << 10}, {Size: 64 << 10}},
		})
		if err != nil {
			return nil, err
		}
		results[a] = res
	}
	add := func(name string, f func(*sim.Result) string) {
		cells := []string{name}
		for _, a := range allocs {
			cells = append(cells, f(results[a]))
		}
		t.AddRow(cells...)
	}
	add("malloc+free (% time)", func(r *sim.Result) string { return f2(r.AllocFraction() * 100) })
	add("heap (KB)", func(r *sim.Result) string { return kb(r.Footprint) })
	add("16K miss (%)", func(r *sim.Result) string {
		c, _ := r.CacheResult(16 << 10)
		return f3(c.MissRate() * 100)
	})
	add("64K miss (%)", func(r *sim.Result) string {
		c, _ := r.CacheResult(64 << 10)
		return f3(c.MissRate() * 100)
	})
	return t, nil
}
