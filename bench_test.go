package mallocsim

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section. Each BenchmarkFigureN / BenchmarkTableN
// runs the corresponding experiment end to end (synthetic workloads
// through real allocators through the locality simulators) and prints
// the resulting table once, so
//
//	go test -bench . -benchtime 1x
//
// reproduces the whole paper. MALLOCSIM_BENCH_SCALE (default 128)
// trades fidelity for time: scale 16 takes minutes and matches
// EXPERIMENTS.md; scale 128 smoke-tests the harness in seconds.
//
// BenchmarkMallocFree* are conventional micro-benchmarks of the six
// allocator implementations themselves; BenchmarkAblation* quantify the
// design decisions the paper's §4.3/§4.4 discussion calls out.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"

	"mallocsim/internal/alloc"
	_ "mallocsim/internal/alloc/all"
	"mallocsim/internal/apps"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/optrace"
	"mallocsim/internal/paper"
	"mallocsim/internal/rng"
	"mallocsim/internal/sim"
	"mallocsim/internal/trace"
	"mallocsim/internal/vm"
	"mallocsim/internal/workload"
)

func benchScale() uint64 {
	if s := os.Getenv("MALLOCSIM_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 128
}

var printOnce sync.Map

// benchExperiment runs one paper experiment per iteration and prints
// its table the first time.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchScale())
		e, ok := r.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		tab, err := e.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			fmt.Printf("\n%s\n", tab.String())
		}
	}
}

func BenchmarkTable1Programs(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2Baseline(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkFigure1MallocTime(b *testing.B)    { benchExperiment(b, "figure1") }
func BenchmarkFigure2PageFaultsGS(b *testing.B)  { benchExperiment(b, "figure2") }
func BenchmarkFigure3PageFaultsPTC(b *testing.B) { benchExperiment(b, "figure3") }
func BenchmarkFigure4NormTime16K(b *testing.B)   { benchExperiment(b, "figure4") }
func BenchmarkFigure5NormTime64K(b *testing.B)   { benchExperiment(b, "figure5") }
func BenchmarkTable3GSInputs(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFigure6GSSmall(b *testing.B)       { benchExperiment(b, "figure6") }
func BenchmarkFigure7GSMedium(b *testing.B)      { benchExperiment(b, "figure7") }
func BenchmarkFigure8GSLarge(b *testing.B)       { benchExperiment(b, "figure8") }
func BenchmarkTable4ExecTime16K(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5ExecTime64K(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6BoundaryTags(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkFigure9SizeMapping(b *testing.B)   { benchExperiment(b, "figure9") }

// BenchmarkServerWorkload runs the concurrent server experiment — the
// full 19-allocator sharing-attribution sweep — end to end through
// Runner.Tables, so its pairs run as the two-lane bundles locality,
// sentinel and RunAll run. It is one of the two benchmarks gated by
// the CI regression check (bench.sh, BENCH_MAX_PCT): the server
// driver, tid plumbing, bundle plan and sharing attributor all sit on
// its hot path.
func BenchmarkServerWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchScale())
		tabs, err := r.Tables(context.Background(), "server")
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore("server", true); !done {
			fmt.Printf("\n%s\n", tabs[0].String())
		}
	}
}

// --- allocator micro-benchmarks ---

// benchMallocFree measures a steady malloc/free churn through one
// allocator implementation, reporting simulated instructions per
// operation alongside the host-side ns/op.
func benchMallocFree(b *testing.B, name string) {
	meter := &cost.Meter{}
	m := mem.New(trace.Discard, meter)
	a, err := alloc.New(name, m)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	sizes := []uint32{8, 16, 24, 24, 32, 48, 64, 128, 24, 16}
	var live []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) > 64 || (len(live) > 0 && r.Bool(0.5)) {
			k := r.Intn(len(live))
			if err := a.Free(live[k]); err != nil {
				b.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		p, err := a.Malloc(sizes[i%len(sizes)])
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, p)
	}
	b.ReportMetric(float64(meter.Total())/float64(b.N), "sim-instr/op")
}

func BenchmarkMallocFreeFirstFit(b *testing.B) { benchMallocFree(b, "firstfit") }
func BenchmarkMallocFreeGnuFit(b *testing.B)   { benchMallocFree(b, "gnufit") }
func BenchmarkMallocFreeBSD(b *testing.B)      { benchMallocFree(b, "bsd") }
func BenchmarkMallocFreeGnuLocal(b *testing.B) { benchMallocFree(b, "gnulocal") }
func BenchmarkMallocFreeQuickFit(b *testing.B) { benchMallocFree(b, "quickfit") }
func BenchmarkMallocFreeCustom(b *testing.B)   { benchMallocFree(b, "custom") }

// --- pointer-chasing kernel benchmarks (package apps) ---

// benchKernel times one kernel iteration through one allocator and
// reports the simulated instruction cost.
func benchKernel(b *testing.B, kernelName, allocName string) {
	app, ok := apps.Get(kernelName)
	if !ok {
		b.Fatalf("no kernel %q", kernelName)
	}
	size := 1500
	if kernelName == "cubes" {
		size = 300 // quadratic pairwise passes
	}
	for i := 0; i < b.N; i++ {
		meter := &cost.Meter{}
		m := mem.New(trace.Discard, meter)
		a, err := alloc.New(allocName, m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.Run(apps.NewCtx(m, a, 1), size); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(meter.Total()), "sim-instr")
	}
}

func BenchmarkKernelSymtabQuickFit(b *testing.B) { benchKernel(b, "symtab", "quickfit") }
func BenchmarkKernelSymtabFirstFit(b *testing.B) { benchKernel(b, "symtab", "firstfit") }
func BenchmarkKernelListsortBSD(b *testing.B)    { benchKernel(b, "listsort", "bsd") }
func BenchmarkKernelXlatGnuLocal(b *testing.B)   { benchKernel(b, "xlat", "gnulocal") }
func BenchmarkKernelCubesCustom(b *testing.B)    { benchKernel(b, "cubes", "custom") }
func BenchmarkKernelDepgraphGnuFit(b *testing.B) { benchKernel(b, "depgraph", "gnufit") }

// --- locality simulator micro-benchmarks ---

func BenchmarkCacheDirectMapped(b *testing.B) {
	c := cache.New(cache.Config{Size: 64 << 10})
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Ref(trace.Ref{Addr: r.Uint64n(1 << 22), Size: 4})
	}
}

func BenchmarkCacheFourWay(b *testing.B) {
	c := cache.New(cache.Config{Size: 64 << 10, Assoc: 4})
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Ref(trace.Ref{Addr: r.Uint64n(1 << 22), Size: 4})
	}
}

// BenchmarkStackSimRef drives the default (ring over Fenwick tree)
// stack-distance engine one Ref at a time with a hot/cold paging
// stream.
func BenchmarkStackSimRef(b *testing.B) {
	s := vm.NewStackSim()
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var addr uint64
		if r.Bool(0.7) {
			addr = r.Uint64n(64 * 4096) // hot set
		} else {
			addr = r.Uint64n(4096 * 4096)
		}
		s.Ref(trace.Ref{Addr: addr, Size: 4})
	}
}

// BenchmarkCacheGroupSweep drives the paper's five-configuration cache
// group (the per-pair workhorse of package paper) with a mixed stream:
// mostly word refs, some straddling line boundaries, occasional block
// refs spanning several lines. This is the hot path the sparse paged
// bitset and the hoisted line decomposition target.
func BenchmarkCacheGroupSweep(b *testing.B) {
	cfgs := make([]cache.Config, len(paper.CacheSizes))
	for i, s := range paper.CacheSizes {
		cfgs[i] = cache.Config{Size: s}
	}
	g := cache.NewGroup(cfgs...)
	r := rng.New(4)
	refs := make([]trace.Ref, 4096)
	for i := range refs {
		ref := trace.Ref{Addr: r.Uint64n(1 << 24), Size: 4}
		if r.Bool(0.3) {
			ref.Kind = trace.Write
		}
		switch {
		case r.Bool(0.05):
			ref.Size = 256 // multi-line block copy
		case r.Bool(0.1):
			ref.Addr = ref.Addr&^63 + 62 // straddles a line boundary
			ref.Size = 8
		}
		refs[i] = ref
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Ref(refs[i%len(refs)])
	}
	b.ReportMetric(float64(g.DistinctLines()), "distinct-lines")
}

// BenchmarkCacheGroupBlockSweep drives the same five-configuration
// group with the same mixed stream as BenchmarkCacheGroupSweep, but
// delivered as one columnar trace.Block per op (4096 rows, including
// collapsed run rows): the fused scan walks each block's lines once and
// probes every config as each line closes. Compare
// the reported ns/ref against BenchmarkCacheGroupSweep's ns/op — both
// simulate the identical reference sequence.
func BenchmarkCacheGroupBlockSweep(b *testing.B) {
	cfgs := make([]cache.Config, len(paper.CacheSizes))
	for i, s := range paper.CacheSizes {
		cfgs[i] = cache.Config{Size: s}
	}
	g := cache.NewGroup(cfgs...)
	r := rng.New(4)
	blk := &trace.Block{}
	refs := 0
	for blk.Len() < 4096 {
		ref := trace.Ref{Addr: r.Uint64n(1 << 24), Size: 4}
		if r.Bool(0.3) {
			ref.Kind = trace.Write
		}
		switch {
		case r.Bool(0.05):
			ref.Size = 256 // multi-line block copy
		case r.Bool(0.1):
			ref.Addr = ref.Addr&^63 + 62 // straddles a line boundary
			ref.Size = 8
		case r.Bool(0.1):
			// A collapsed run row: a sequential word sweep, as the
			// allocators' clear/copy loops emit via mem.TouchRun.
			blk.AppendRun(ref.Addr&^7, 8, ref.Kind, 32)
			refs += 32
			continue
		}
		blk.Append(ref)
		refs++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Block(blk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refs), "ns/ref")
	b.ReportMetric(float64(g.DistinctLines()), "distinct-lines")
}

// BenchmarkStackSimSweepExact drives the default (ring over Fenwick
// tree) stack-distance engine with a hot/cold paging stream in block
// mode: 20% of references to a 64-page hot set, the rest spread over
// 1 Mi cold pages, so nearly every page switch reaches the tree tier.
func BenchmarkStackSimSweepExact(b *testing.B) {
	s := vm.NewStackSim()
	r := rng.New(3)
	blk := &trace.Block{}
	for blk.Len() < 4096 {
		var addr uint64
		if r.Bool(0.2) {
			addr = r.Uint64n(64 * 4096) // hot set
		} else {
			addr = r.Uint64n(1 << 32) // 1 Mi cold pages
		}
		blk.Append(trace.Ref{Addr: addr, Size: 4})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Block(blk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Len()), "ns/ref")
}

// blockRecorder keeps a copy of every block a producer flushes (the
// producer reuses its block, so the columns are cloned) and of every
// synchronously delivered reference, as a one-row block.
type blockRecorder struct{ blocks []trace.Block }

func (r *blockRecorder) Ref(ref trace.Ref) {
	var blk trace.Block
	blk.Append(ref)
	r.blocks = append(r.blocks, blk)
}

func (r *blockRecorder) Block(b *trace.Block) {
	r.blocks = append(r.blocks, trace.Block{
		Addrs: slices.Clone(b.Addrs),
		Sizes: slices.Clone(b.Sizes),
		Kinds: slices.Clone(b.Kinds),
		Runs:  slices.Clone(b.Runs),
		Tids:  slices.Clone(b.Tids),
	})
}

// recordPair runs one program/allocator pair at the golden scale, seed
// 1, and returns the blocks mem.Memory flushes to the sinks of a
// paper.Runner pair, with their total reference count, and the Memory
// that made them, whose RegionIndex classifies their addresses. Like
// the Runner, it takes program from the server scenarios first
// (workload.RunServerContext) and from the program catalog otherwise.
// It runs outside the timer of the replay benchmarks that share it.
func recordPair(b *testing.B, program, allocator string) ([]trace.Block, int, *mem.Memory) {
	b.Helper()
	rec := &blockRecorder{}
	m := mem.New(rec, &cost.Meter{})
	m.SetBatching(0)
	a, err := alloc.New(allocator, m)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if scen, ok := workload.ServerByName(program); ok {
		_, err = workload.RunServerContext(ctx, m, a, workload.ServerRunConfig{Scenario: scen, Scale: paper.GoldenScale, Seed: 1})
	} else if prog, ok := workload.ByName(program); ok {
		_, err = workload.RunContext(ctx, m, a, workload.Config{Program: prog, Scale: paper.GoldenScale, Seed: 1})
	} else {
		b.Fatalf("unknown program %s", program)
	}
	if err != nil {
		b.Fatal(err)
	}
	m.Flush()
	var refs int
	for i := range rec.blocks {
		refs += rec.blocks[i].Refs()
	}
	return rec.blocks, refs, m
}

// nsPerRef reports a replay benchmark's elapsed time per replayed
// reference.
func nsPerRef(b *testing.B, refs int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(refs)), "ns/ref")
}

// rowCounter is a block sink that only counts the rows it is flushed:
// the cheapest consumer mem.Memory can feed, so a run into it times
// the workload driver, the allocator and mem's emit path alone.
type rowCounter struct{ rows int }

func (c *rowCounter) Ref(trace.Ref)        { c.rows++ }
func (c *rowCounter) Block(b *trace.Block) { c.rows += b.Len() }

// BenchmarkWorkloadSynthesis runs one program pair (gs/firstfit) and
// one server pair (server/bsd) at the golden scale, seed 1, per op,
// each on a fresh Memory and allocator, batched into a rowCounter: the
// workload stage of the layer ladder, with the allocator and mem emit
// it cannot run without. The bundle case runs gs once for the five
// paper allocators as one bundle (workload.RunBundle), each lane into
// its own rowCounter, as paper.Runner.Prefetch does. ns/ref divides by
// the references every lane emits, counted once outside the timer, so
// bundle against program is the synthesis a bundle shares.
func BenchmarkWorkloadSynthesis(b *testing.B) {
	prog, ok := workload.ByName("gs")
	if !ok {
		b.Fatal("unknown program gs")
	}
	scen, ok := workload.ServerByName("server")
	if !ok {
		b.Fatal("unknown server scenario")
	}
	ctx := context.Background()
	cfg := workload.Config{Program: prog, Scale: paper.GoldenScale, Seed: 1}
	cases := []struct {
		name       string
		allocators []string
		drive      func(lanes []workload.Lane) error
	}{
		{"program", []string{"firstfit"}, func(lanes []workload.Lane) error {
			_, err := workload.RunContext(ctx, lanes[0].Mem, lanes[0].Alloc, cfg)
			return err
		}},
		{"server", []string{"bsd"}, func(lanes []workload.Lane) error {
			_, err := workload.RunServerContext(ctx, lanes[0].Mem, lanes[0].Alloc, workload.ServerRunConfig{Scenario: scen, Scale: paper.GoldenScale, Seed: 1})
			return err
		}},
		{"bundle", paper.Allocators, func(lanes []workload.Lane) error {
			_, errs := workload.RunBundle(ctx, lanes, cfg)
			return errors.Join(errs...)
		}},
	}
	for _, c := range cases {
		run := func(sink func(lane int) trace.Sink) {
			lanes := make([]workload.Lane, len(c.allocators))
			for i, name := range c.allocators {
				m := mem.New(sink(i), &cost.Meter{})
				m.SetBatching(0)
				a, err := alloc.New(name, m)
				if err != nil {
					b.Fatal(err)
				}
				lanes[i] = workload.Lane{Mem: m, Alloc: a}
			}
			if err := c.drive(lanes); err != nil {
				b.Fatal(err)
			}
			for _, l := range lanes {
				l.Mem.Flush()
			}
		}
		b.Run(c.name, func(b *testing.B) {
			counters := make([]trace.Counter, len(c.allocators))
			run(func(i int) trace.Sink { return &counters[i] })
			var refs uint64
			for i := range counters {
				refs += counters[i].Total()
			}
			b.ResetTimer()
			var rows []rowCounter
			for i := 0; i < b.N; i++ {
				rows = make([]rowCounter, len(c.allocators))
				run(func(i int) trace.Sink { return &rows[i] })
			}
			nsPerRef(b, int(refs))
			var total int
			for _, r := range rows {
				total += r.rows
			}
			b.ReportMetric(float64(refs)/float64(total), "refs/row")
		})
	}
}

// BenchmarkAllocatorPairReplay replays gs/firstfit's allocator op
// stream — recorded once, outside the timer, at the golden scale, seed
// 1 — into a fresh firstfit on a batched Memory per op, feeding a
// rowCounter: the allocator stage of the layer ladder. It times the
// allocator's own word references through mem's ReadWord/WriteWord,
// backing pages and emit path, without the workload's synthesis and
// application references.
func BenchmarkAllocatorPairReplay(b *testing.B) {
	prog, ok := workload.ByName("gs")
	if !ok {
		b.Fatal("unknown program gs")
	}
	var ops bytes.Buffer
	w, err := optrace.NewWriter(&ops)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New(nil, &cost.Meter{})
	a, err := alloc.New("firstfit", m)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.Config{Program: prog, Scale: paper.GoldenScale, Seed: 1}
	if _, err := workload.RunContext(context.Background(), m, optrace.NewRecorder(a, w), cfg); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows rowCounter
	for i := 0; i < b.N; i++ {
		rows = rowCounter{}
		m := mem.New(&rows, &cost.Meter{})
		m.SetBatching(0)
		a, err := alloc.New("firstfit", m)
		if err != nil {
			b.Fatal(err)
		}
		r, err := optrace.NewReader(bytes.NewReader(ops.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := optrace.Replay(r, a, nil); err != nil {
			b.Fatal(err)
		}
		m.Flush()
	}
	b.ReportMetric(float64(w.Count()), "alloc-ops")
	b.ReportMetric(float64(rows.rows), "rows")
}

// BenchmarkStackSimPairReplay replays one paging pair's recorded
// reference stream — gs/firstfit at the golden scale, seed 1, as
// mem.Memory flushes it to the sinks of a paper.Runner pair — into a
// fresh exact StackSim per op. It is the stack simulator's stage of
// the layer ladder: the same work vm.StackSim does inside the
// paper-paging experiments, with real page locality, where
// BenchmarkStackSimSweepExact's random addresses have almost none.
func BenchmarkStackSimPairReplay(b *testing.B) {
	blocks, refs, _ := recordPair(b, "gs", "firstfit")
	b.ResetTimer()
	var pages int
	for i := 0; i < b.N; i++ {
		s := vm.NewStackSim()
		for j := range blocks {
			s.Block(&blocks[j])
		}
		pages = s.DistinctPages()
	}
	nsPerRef(b, refs)
	b.ReportMetric(float64(pages), "distinct-pages")
}

// BenchmarkCacheGroupPairReplay replays the same recorded gs/firstfit
// stream into a fresh cache.Group per op: the cache group's stage of
// the layer ladder. Two member shapes select Group's two block paths —
// paper, the five direct-mapped paper caches, runs fusedScan; assoc,
// 16K direct, 32K 2-way and 64K 4-way, expands every block reference
// through Ref — and each shape is delivered both as the flushed blocks
// (block) and as the unbatched per-reference stream (ref). paper/block
// against paper/ref is what the fused scan buys; assoc/block against
// assoc/ref is what the expansion loop costs on top of Ref.
func BenchmarkCacheGroupPairReplay(b *testing.B) {
	blocks, refs, _ := recordPair(b, "gs", "firstfit")
	var flat []trace.Ref
	for i := range blocks {
		flat = blocks[i].AppendRefs(flat)
	}
	paperCfgs := make([]cache.Config, len(paper.CacheSizes))
	for i, s := range paper.CacheSizes {
		paperCfgs[i] = cache.Config{Size: s}
	}
	shapes := []struct {
		name string
		cfgs []cache.Config
	}{
		{"paper", paperCfgs},
		{"assoc", []cache.Config{{Size: 16 << 10}, {Size: 32 << 10, Assoc: 2}, {Size: 64 << 10, Assoc: 4}}},
	}
	deliveries := []struct {
		name    string
		deliver func(g *cache.Group)
	}{
		{"block", func(g *cache.Group) {
			for j := range blocks {
				g.Block(&blocks[j])
			}
		}},
		{"ref", func(g *cache.Group) {
			for _, r := range flat {
				g.Ref(r)
			}
		}},
	}
	for _, sh := range shapes {
		for _, d := range deliveries {
			b.Run(sh.name+"/"+d.name, func(b *testing.B) {
				var lines uint64
				for i := 0; i < b.N; i++ {
					g := cache.NewGroup(sh.cfgs...)
					d.deliver(g)
					lines = g.DistinctLines()
				}
				nsPerRef(b, refs)
				b.ReportMetric(float64(lines), "distinct-lines")
			})
		}
	}
}

// BenchmarkSharingMultiRegion feeds a fresh sharing attributor one
// block laid out like a server pair's address space — three allocator
// regions, eight 64 KB thread stacks and the globals, one mem region
// span each — from eight threads, and assembles its report: the
// per-pair life cycle of cache.Sharing in the server experiment. B/op
// is the attributor's table growth, which a page table indexed by
// absolute line page makes proportional to the highest region's index;
// ns/ref includes it.
func BenchmarkSharingMultiRegion(b *testing.B) {
	m := mem.New(nil, nil)
	heap := m.NewRegion("heap", 0)
	info := m.NewRegion("info", 0)
	m.NewRegion("state", mem.PageSize)
	var stacks []*mem.Region
	for t := 0; t < 8; t++ {
		stacks = append(stacks, m.NewRegion(fmt.Sprintf("stack%d", t), 64<<10))
	}
	globals := m.NewRegion("globals", 0)
	span := func(r *mem.Region, n uint64) uint64 {
		base, err := r.Sbrk(n)
		if err != nil {
			b.Fatal(err)
		}
		return base
	}
	heapBase, infoBase, globalsBase := span(heap, 1<<20), span(info, 64<<10), span(globals, 16<<10)
	stackBases := make([]uint64, len(stacks))
	for t, r := range stacks {
		stackBases[t] = span(r, 64<<10-mem.RegionReserve)
	}
	r := rng.New(6)
	blk := &trace.Block{}
	for blk.Len() < 1<<16 {
		tid := uint8(r.Uint64n(8))
		kind := trace.Read
		if r.Bool(0.3) {
			kind = trace.Write
		}
		var addr uint64
		switch x := r.Float64(); {
		case x < 0.4:
			addr = stackBases[tid] + mem.WordSize*r.Uint64n(1<<10)
		case x < 0.8:
			addr = heapBase + mem.WordSize*r.Uint64n(1<<18)
		case x < 0.9:
			addr = infoBase + mem.WordSize*r.Uint64n(1<<14)
		default:
			addr = globalsBase + mem.WordSize*r.Uint64n(1<<12)
		}
		if r.Bool(0.1) {
			blk.AppendRunTid(addr, mem.WordSize, kind, 8, tid) // an object initialization
			continue
		}
		blk.Append(trace.Ref{Addr: addr, Size: mem.WordSize, Kind: kind, Tid: tid})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		s := cache.NewSharing(cache.SharingConfig{RegionOf: m.RegionIndex})
		s.Block(blk)
		rep := s.Report()
		events = rep.True + rep.False
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Refs()), "ns/ref")
	b.ReportMetric(float64(events), "events")
}

// BenchmarkSharingPairReplay replays three recorded server pairs —
// server/bsd, server/firstfit and server/locarena at the golden scale,
// seed 1, as mem.Memory flushes them to the sinks of a paper.Runner
// server pair — into a fresh sharing attributor per op, which
// classifies regions through the recording Memory's RegionIndex as sim
// does, and assembles its report: cache.Sharing's stage of the layer
// ladder, on a real pair's address space and thread interleaving. B/op
// is the attributor's coherence state for one pair.
func BenchmarkSharingPairReplay(b *testing.B) {
	for _, allocator := range []string{"bsd", "firstfit", "locarena"} {
		blocks, refs, m := recordPair(b, "server", allocator)
		b.Run(allocator, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				s := cache.NewSharing(cache.SharingConfig{RegionOf: m.RegionIndex})
				for j := range blocks {
					s.Block(&blocks[j])
				}
				rep := s.Report()
				events = rep.True + rep.False
			}
			nsPerRef(b, refs)
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkTeeBatch compares synchronous per-ref delivery against the
// batched ring-buffer path through a realistic fan-out (counter + cache
// group + filter), measured per simulated reference. Batched, the
// counter and group take columnar blocks while the filter, a plain
// Sink, stays on the synchronous tier, so each reference pays one
// direct call beside its buffer append.
func BenchmarkTeeBatch(b *testing.B) {
	mkSink := func() trace.Sink {
		g := cache.NewGroup(cache.Config{Size: 16 << 10}, cache.Config{Size: 64 << 10})
		return trace.NewTee(
			&trace.Counter{},
			g,
			&trace.Filter{Keep: func(r trace.Ref) bool { return r.Kind == trace.Write }, Next: &trace.Counter{}},
		)
	}
	run := func(b *testing.B, batch int) {
		m := mem.New(mkSink(), &cost.Meter{})
		m.SetBatching(batch)
		region := m.NewRegion("bench", 1<<21)
		base, err := region.Sbrk(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := base + r.Uint64n(1<<20)&^7
			if r.Bool(0.3) {
				m.WriteWord(a, uint64(i))
			} else {
				m.ReadWord(a)
			}
		}
		m.Flush()
	}
	b.Run("direct", func(b *testing.B) { run(b, -1) })
	b.Run("batched", func(b *testing.B) { run(b, 0) })
}

// BenchmarkRunAllParallel regenerates the paper's entire experiment
// suite per iteration with the worker pool at GOMAXPROCS;
// BenchmarkRunAllSequential is the same matrix at Workers=1. Their
// ratio is the wall-clock win of parallel matrix execution (the output
// is byte-identical either way).
func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchScale())
		if _, err := r.RunAll(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchScale())
		r.Workers = 1
		if _, err := r.RunAll(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches: the §4.3/§4.4 design decisions ---

func runAblation(b *testing.B, progName, allocName string, caches ...cache.Config) *sim.Result {
	b.Helper()
	prog, ok := workload.ByName(progName)
	if !ok {
		b.Fatal("unknown program")
	}
	res, err := sim.Run(sim.Config{
		Program:   prog,
		Allocator: allocName,
		Scale:     benchScale(),
		Caches:    caches,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationCoalescing quantifies §4.1's claim that coalescing
// buys space at the price of time and locality.
func BenchmarkAblationCoalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := runAblation(b, "espresso", "firstfit", cache.Config{Size: 64 << 10})
		off := runAblation(b, "espresso", "firstfit-nocoalesce", cache.Config{Size: 64 << 10})
		b.ReportMetric(float64(off.Footprint)/float64(on.Footprint), "space-ratio")
		b.ReportMetric(off.Caches[0].MissRate()/on.Caches[0].MissRate(), "miss-ratio")
	}
}

// BenchmarkAblationRover compares Knuth's roving pointer against
// scanning from the list head.
func BenchmarkAblationRover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rover := runAblation(b, "espresso", "firstfit", cache.Config{Size: 64 << 10})
		head := runAblation(b, "espresso", "firstfit-norover", cache.Config{Size: 64 << 10})
		b.ReportMetric(float64(head.Instr.Total())/float64(rover.Instr.Total()), "instr-ratio")
	}
}

// BenchmarkAblationAssociativity extends the paper's direct-mapped
// study along the axis its related-work section cites (Wilson et al.).
func BenchmarkAblationAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runAblation(b, "gs-small", "quickfit",
			cache.Config{Size: 16 << 10, Assoc: 1},
			cache.Config{Size: 16 << 10, Assoc: 2},
			cache.Config{Size: 16 << 10, Assoc: 4})
		b.ReportMetric(res.Caches[0].MissRate()*100, "miss%-1way")
		b.ReportMetric(res.Caches[1].MissRate()*100, "miss%-2way")
		b.ReportMetric(res.Caches[2].MissRate()*100, "miss%-4way")
	}
}

// BenchmarkAblationChunkReclaim measures the cost of the custom
// allocator's optional whole-chunk reclamation.
func BenchmarkAblationChunkReclaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := runAblation(b, "gawk", "custom", cache.Config{Size: 16 << 10})
		reclaim := runAblation(b, "gawk", "custom-reclaim", cache.Config{Size: 16 << 10})
		b.ReportMetric(float64(reclaim.Instr.Total())/float64(plain.Instr.Total()), "instr-ratio")
		b.ReportMetric(float64(reclaim.Footprint)/float64(plain.Footprint), "space-ratio")
	}
}

// BenchmarkAblationSizeClasses sweeps the §4.4 size-class granularity
// choice: power-of-two versus 25%-bounded classes.
func BenchmarkAblationSizeClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pow2 := runAblation(b, "gawk", "custom-pow2", cache.Config{Size: 16 << 10})
		bounded := runAblation(b, "gawk", "custom", cache.Config{Size: 16 << 10})
		b.ReportMetric(float64(pow2.Footprint)/float64(bounded.Footprint), "pow2-space-ratio")
	}
}
