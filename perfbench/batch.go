package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mallocsim/internal/paper"
	"mallocsim/internal/sim"
)

// hitsPerPass is how many experiments a batch workload re-requests from
// the warm Runner in a measuring process.
const hitsPerPass = 60

// batchBench drives one batch workload through paper.Runner.
type batchBench struct {
	w       workloadDef
	seed    uint64
	workers int
	tally   *tally
	digests map[string]string // pair → outputs digest of its first run

	// Results passes (Prefetch, then Experiment.Run per experiment).
	walls     sample // s
	mrefs     sample // simulated Mref per host second
	pairRate  sample // pairs per host second
	prefetchS sample // s spent in Prefetch
	assemblyS sample // s spent in Experiment.Run
	hitLat    sample // ms per experiment re-requested from the warm Runner
	// Per-pair passes (Runner.Result from nproc closed-loop clients).
	runLat sample // ms per pair
	// Traced passes.
	traced       [][]*tracedPair
	tracedWalls  sample // s
	runtimeDelta runtimeStats
}

func (b *batchBench) newRunner() *paper.Runner {
	r := paper.NewRunner(batchScale)
	r.Seed = b.seed
	r.Workers = b.workers
	return r
}

// check compares a pair's outputs with those of its first run in this
// process; every run of a pair must simulate the same thing.
func (b *batchBench) check(what string, p paper.Pair, o outputs) {
	key := p.Program + "/" + p.Allocator
	d := o.digest()
	if first, ok := b.digests[key]; !ok {
		b.digests[key] = d
	} else if d != first {
		b.tally.fail("%s %s: outputs differ from the first run of the pair", what, key)
		return
	}
	b.tally.ok()
}

// resultsPass regenerates the workload's experiments the way
// cmd/locality does: Prefetch the pairs on the worker pool, then
// assemble each table with Experiment.Run. It calls ready once the
// Runner and its pair list are built, and returns the warm Runner.
func (b *batchBench) resultsPass(ctx context.Context, ready func()) *paper.Runner {
	r := b.newRunner()
	pairs := r.PairsFor(b.w.exps...)
	ready()
	start := time.Now()
	perr := r.Prefetch(ctx, pairs)
	prefetch := time.Since(start)
	for _, id := range b.w.exps {
		e, _ := r.ByID(id)
		if _, err := e.Run(ctx); err != nil {
			b.tally.fail("experiment %s: %v", id, err)
		}
	}
	wall := time.Since(start)
	if perr != nil {
		b.tally.fail("prefetch: %v", perr)
	}

	var refs uint64
	for _, p := range pairs {
		res, err := r.Result(ctx, p.Program, p.Allocator) // a memo lookup
		if err != nil {
			b.tally.fail("pair %s/%s: %v", p.Program, p.Allocator, err)
			continue
		}
		refs += res.Refs.Total()
		b.check("results pass", p, resultOutputs(res))
	}
	b.walls = append(b.walls, wall.Seconds())
	b.mrefs = append(b.mrefs, float64(refs)/wall.Seconds()/1e6)
	b.pairRate = append(b.pairRate, float64(len(pairs))/wall.Seconds())
	b.prefetchS = append(b.prefetchS, prefetch.Seconds())
	b.assemblyS = append(b.assemblyS, (wall - prefetch).Seconds())
	return r
}

// hits makes re-requests from to to-1 of the workload's experiments,
// cycling through them, from a warm Runner; each is answered from the
// Runner's memo without simulating.
func (b *batchBench) hits(ctx context.Context, r *paper.Runner, from, to int) {
	for k := from; k < to; k++ {
		id := b.w.exps[k%len(b.w.exps)]
		e, _ := r.ByID(id)
		start := time.Now()
		_, err := e.Run(ctx)
		d := time.Since(start)
		if err != nil {
			b.tally.fail("re-requested experiment %s: %v", id, err)
			continue
		}
		b.tally.ok()
		b.hitLat = append(b.hitLat, ms(d))
	}
}

// pairPass submits every pair once to a fresh Runner from nproc
// closed-loop clients, one Runner.Result call at a time, timing each
// pair.
func (b *batchBench) pairPass(ctx context.Context) {
	r := b.newRunner()
	pairs := r.PairsFor(b.w.exps...)
	lat := make([]time.Duration, len(pairs))
	res := make([]*sim.Result, len(pairs))
	errs := make([]error, len(pairs))
	forEach(len(pairs), b.workers, func(i int) {
		start := time.Now()
		res[i], errs[i] = r.Result(ctx, pairs[i].Program, pairs[i].Allocator)
		lat[i] = time.Since(start)
	})
	for i, p := range pairs {
		if errs[i] != nil {
			b.tally.fail("pair %s/%s: %v", p.Program, p.Allocator, errs[i])
			continue
		}
		b.check("per-pair pass", p, resultOutputs(res[i]))
		b.runLat = append(b.runLat, ms(lat[i]))
	}
}

// tracedPass runs every pair through the traced pipeline on nproc
// goroutines and checks each pair's outputs against the untraced
// Runner's result for it.
func (b *batchBench) tracedPass(ctx context.Context, untraced *paper.Runner) {
	pairs := untraced.PairsFor(b.w.exps...)
	tps := make([]*tracedPair, len(pairs))
	errs := make([]error, len(pairs))
	start := time.Now()
	forEach(len(pairs), b.workers, func(i int) {
		tps[i], errs[i] = runTracedPair(ctx, pairs[i], batchScale, b.seed)
	})
	wall := time.Since(start)
	var done []*tracedPair
	for i, p := range pairs {
		if errs[i] != nil {
			b.tally.fail("traced pair %s/%s: %v", p.Program, p.Allocator, errs[i])
			continue
		}
		res, err := untraced.Result(ctx, p.Program, p.Allocator)
		if err != nil {
			b.tally.fail("pair %s/%s: %v", p.Program, p.Allocator, err)
			continue
		}
		if tps[i].out.digest() != resultOutputs(res).digest() {
			b.tally.fail("traced pair %s/%s: outputs differ from Runner.Result", p.Program, p.Allocator)
			continue
		}
		b.tally.ok()
		done = append(done, tps[i])
	}
	b.traced = append(b.traced, done)
	b.tracedWalls = append(b.tracedWalls, wall.Seconds())
}

// forEach calls fn(i) for every i in [0, n) on the given number of
// goroutines, handing indexes out in order as paper.Runner.Prefetch
// hands out pairs, and returns when every call has returned.
func forEach(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// measurePass is one measuring process's work: a results pass and a
// per-pair pass, with half the re-requests after each. It calls ready
// once set up. A burst of re-requests lasts a few milliseconds, and on
// a shared host the speed of so short a window changes by up to a third
// from one window to the next, also within a process, so two bursts a
// process give the run's hit median twice as many windows to average.
func (b *batchBench) measurePass(ctx context.Context, ready func()) passReport {
	r := b.resultsPass(ctx, ready)
	b.hits(ctx, r, 0, hitsPerPass/2)
	b.pairPass(ctx)
	b.hits(ctx, r, hitsPerPass/2, hitsPerPass)
	return passReport{
		WallS:    b.walls[0],
		MrefPerS: b.mrefs[0],
		OpsPerS:  b.pairRate[0],
		RunMs:    b.runLat,
		HitMs:    b.hitLat,
		Outputs:  b.digests,
	}
}

// measureTraced alternates untraced results passes with traced passes
// over the same pairs until the run has lasted its seconds.
func (b *batchBench) measureTraced(ctx context.Context, seconds time.Duration) {
	start := time.Now()
	for time.Since(start) < seconds || len(b.traced) < 2 {
		before := readRuntime()
		r := b.resultsPass(ctx, func() {})
		b.runtimeDelta.add(readRuntime().sub(before))
		b.tracedPass(ctx, r)
	}
}

// layerMetrics derives the per-layer metrics of the traced passes.
// Times and counts are per pass; ratios are over every traced pair.
func (b *batchBench) layerMetrics() map[string]float64 {
	passes := float64(len(b.traced))
	var self [numLayers]int64
	var refs, ops, scan, flushes, rows, touched, lines, pageRefs, pagesDistinct, shareRefs, shareEvents float64
	var pairS sample
	var idle sample
	for i, pass := range b.traced {
		var pairSum float64
		for _, tp := range pass {
			for l := layer(0); l < numLayers; l++ {
				self[l] += tp.tr.selfNs(l)
			}
			r := float64(tp.refs)
			refs += r
			ops += float64(tp.allocOps)
			scan += float64(tp.scanSteps)
			flushes += float64(tp.flushes)
			rows += float64(tp.rows)
			touched += float64(tp.pagesTouched)
			lines += float64(tp.distinctLines)
			if tp.out.Curve != nil {
				pageRefs += r
				pagesDistinct += float64(tp.distinctPages)
			}
			if tp.hasSharing {
				shareRefs += r
				shareEvents += float64(tp.sharingEvents)
			}
			d := float64(tp.tr.spanNs(layerPair)) / 1e9
			pairS = append(pairS, d)
			pairSum += d
		}
		idle = append(idle, 1-pairSum/(float64(b.workers)*b.tracedWalls[i]))
	}
	perPass := func(ns int64) float64 { return float64(ns) / 1e9 / passes }
	perRef := func(ns int64, n float64) float64 { return ratio(float64(ns), n) }
	m := map[string]float64{
		"workload.self_s":          perPass(self[layerWorkload]),
		"workload.ns_per_ref":      perRef(self[layerWorkload], refs),
		"alloc.self_s":             perPass(self[layerAlloc]),
		"alloc.ns_per_op":          perRef(self[layerAlloc], ops),
		"alloc.ops":                ops / passes,
		"alloc.scan_steps_per_op":  ratio(scan, ops),
		"mem.flushes":              flushes / passes,
		"mem.refs_per_row":         ratio(refs, rows),
		"mem.pages_touched":        touched / passes,
		"trace.counter_ns_per_ref": perRef(self[layerCounter], refs),
		"cache.group_s":            perPass(self[layerGroup]),
		"cache.group_ns_per_ref":   perRef(self[layerGroup], refs),
		"cache.distinct_lines":     lines / passes,
		"cache.sharing_s":          perPass(self[layerSharing]),
		"cache.sharing_ns_per_ref": perRef(self[layerSharing], shareRefs),
		"cache.sharing_events":     shareEvents / passes,
		"vm.stack_s":               perPass(self[layerStack]),
		"vm.stack_ns_per_ref":      perRef(self[layerStack], pageRefs),
		"vm.distinct_pages":        pagesDistinct / passes,
		"sim.setup_s":              perPass(self[layerSetup]),
		"sim.glue_s":               perPass(self[layerPair]),
		"paper.pair_p50_s":         pairS.median(),
		"paper.pair_max_s":         pairS.max(),
		"paper.pool_idle_frac":     idle.median(),
		"paper.assembly_s":         b.assemblyS.median(),
		"tracing.overhead_frac":    b.tracedWalls.median()/b.prefetchS.median() - 1,
	}
	for k, v := range b.runtimeDelta.metrics(len(b.prefetchS)) {
		m[k] = v
	}
	return m
}

// pairCost is one pair's mean traced span and layer self times.
type pairCost struct {
	key  string
	span float64            // s
	self [numLayers]float64 // s
}

// pairCosts averages each pair's traced times over the traced passes.
func (b *batchBench) pairCosts() []pairCost {
	byKey := map[string]*pairCost{}
	var order []string
	for _, pass := range b.traced {
		for _, tp := range pass {
			c := byKey[tp.tr.op]
			if c == nil {
				c = &pairCost{key: tp.tr.op}
				byKey[tp.tr.op] = c
				order = append(order, tp.tr.op)
			}
			c.span += float64(tp.tr.spanNs(layerPair)) / 1e9
			for l := layer(0); l < numLayers; l++ {
				c.self[l] += float64(tp.tr.selfNs(l)) / 1e9
			}
		}
	}
	out := make([]pairCost, 0, len(order))
	n := float64(len(b.traced))
	for _, k := range order {
		c := byKey[k]
		c.span /= n
		for l := range c.self {
			c.self[l] /= n
		}
		out = append(out, *c)
	}
	return out
}

// printReconciliation prints, for each pair and for the workload, the
// layers' self times next to the pair span; the pair's own self time is
// the glue no layer accounts for, so each row's layers and glue add up
// to its span.
func (b *batchBench) printReconciliation() {
	costs := b.pairCosts()
	total := pairCost{key: "workload " + b.w.name}
	for _, c := range costs {
		total.span += c.span
		for l := range total.self {
			total.self[l] += c.self[l]
		}
	}
	header := []string{"pair span"}
	for l := layerSetup; l < numLayers; l++ {
		header = append(header, layerNames[l])
	}
	header = append(header, "sim.glue")
	fmt.Printf("reconciliation (s per traced pass; span = Σ layer self + sim.glue):\n")
	fmt.Printf("  %-28s %s\n", "pair", strings.Join(header, " | "))
	for _, c := range append(costs, total) {
		cells := []string{fmt.Sprintf("%.4f", c.span)}
		for l := layerSetup; l < numLayers; l++ {
			cells = append(cells, fmt.Sprintf("%.4f", c.self[l]))
		}
		cells = append(cells, fmt.Sprintf("%.4f", c.self[layerPair]))
		fmt.Printf("  %-28s %s\n", c.key, strings.Join(cells, " | "))
	}
}

// printExperimentCosts prints, for each experiment, the summed traced
// pair seconds and its longest pair.
func (b *batchBench) printExperimentCosts() {
	span := map[string]float64{}
	for _, c := range b.pairCosts() {
		span[c.key] = c.span
	}
	r := b.newRunner()
	type row struct {
		id      string
		sum     float64
		maxPair string
		max     float64
	}
	var rows []row
	for _, id := range b.w.exps {
		x := row{id: id}
		for _, p := range r.PairsFor(id) {
			s := span[p.Program+"/"+p.Allocator]
			x.sum += s
			if s > x.max {
				x.max, x.maxPair = s, p.Program+"/"+p.Allocator
			}
		}
		rows = append(rows, x)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].sum > rows[j].sum })
	fmt.Printf("experiment cost (traced pair seconds per pass, most expensive first):\n")
	for _, x := range rows {
		fmt.Printf("  %-8s Σ pairs %.3f s, longest %s %.3f s\n", x.id, x.sum, x.maxPair, x.max)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
