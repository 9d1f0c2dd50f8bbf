// Package sim binds a workload model, an allocator, and the locality
// simulators into one experiment run, producing the metrics every
// table and figure of the paper is computed from.
//
// A run wires up:
//
//	workload.Run ──refs──▶ mem.Memory ──trace──▶ counter
//	                        │    ▲                cache.Group (N configs)
//	                        ▼    │                vm.StackSim (optional)
//	                     allocator (real implementation in that memory)
//
// and instruction costs flow into a cost.Meter split by app/malloc/free
// domain. Execution time is then estimated with the paper's model
// T = I + M·P·D (§4.2).
package sim

import (
	"context"
	"errors"
	"fmt"

	"mallocsim/internal/alloc"
	_ "mallocsim/internal/alloc/all" // register all allocator implementations
	"mallocsim/internal/alloc/shadow"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/obs"
	"mallocsim/internal/trace"
	"mallocsim/internal/vm"
	"mallocsim/internal/workload"
)

// DefaultPenalty is the paper's cache miss penalty ("a modest cache
// miss penalty (25 cycles)").
const DefaultPenalty = 25

// ClockHz converts simulated cycles to the paper's reported seconds.
// Table 2 gives ESPRESSO 2506 M instructions in 155.1 s on the
// DECstation 5000/120 test vehicle — 16.16 MIPS at the paper's
// one-instruction-per-cycle assumption.
const ClockHz = 16.16e6

// Config describes one experiment run.
type Config struct {
	Program   workload.Program
	Allocator string
	// Server, when non-nil, runs the concurrent server scenario instead
	// of Program (which is then ignored): the workload drives N logical
	// threads with per-thread reference streams (see
	// workload.RunServerContext) and the run attaches a cache.Sharing
	// sink that attributes cross-thread line transfers as true vs. false
	// sharing (Result.Sharing).
	Server *workload.ServerConfig
	// Scale divides the program's event counts (see workload.Config).
	Scale uint64
	// Seed defaults to 1.
	Seed uint64
	// Caches lists the cache configurations to simulate in parallel.
	Caches []cache.Config
	// PageSim enables LRU stack-distance page-fault simulation.
	PageSim bool
	// Sinks, when non-nil, adds sinks to each lane's tee beside the
	// counter, the cache group and the page simulator. It is called once
	// per lane with the lane's index into RunBundle's allocators, and
	// must return fresh sinks, which the caller reads after the run.
	Sinks func(lane int) []trace.Sink

	// Recorder, when non-nil, enables the observability layer: the
	// allocator is wrapped with obs.Instrument and per-call metrics
	// (instruction-latency and request-size histograms, error counts,
	// live-set gauges, freelist scan lengths) accumulate in it. A nil
	// Recorder takes the seed code path — no wrapper, no extra sinks,
	// zero overhead (guarded by BenchmarkNilRecorderOverhead).
	Recorder *obs.Recorder
	// SampleEvery, with a non-nil Recorder, captures one
	// obs.SamplePoint every that many malloc/free operations: the
	// phase-behaviour time series (Result.Series).
	SampleEvery uint64
	// Attribution enables the per-region × cost-domain reference
	// attribution matrix (Result.Attribution).
	Attribution bool

	// CheckHeap wraps the allocator in the shadow heap auditor
	// (internal/alloc/shadow): an independent host-side oracle model of
	// the live set that validates every malloc/free against the
	// allocator contract and runs periodic boundary-tag audits. The
	// wrapper adds no simulated references or instructions, so all
	// paper metrics are unchanged; violations land in Result.Shadow.
	CheckHeap bool
	// AuditEvery overrides the heap-audit cadence (operations between
	// full heap-walk audits) when CheckHeap is set; 0 uses
	// shadow.DefaultAuditEvery.
	AuditEvery uint64
}

// Result carries everything measured in one run.
type Result struct {
	Program   string
	Allocator string
	Scale     uint64
	Seed      uint64

	Workload workload.Stats
	Instr    cost.Snapshot
	Refs     trace.Counter
	// Footprint is the paper's "maximum heap size": bytes requested
	// from the OS across all allocator regions (excluding the
	// workload's stack and global segments).
	Footprint uint64
	// TotalFootprint includes the stack and global segments.
	TotalFootprint uint64

	Caches []cache.Result
	Curve  *vm.Curve

	// Recorder echoes Config.Recorder: the per-call allocator metrics
	// (nil when the run was not instrumented).
	Recorder *obs.Recorder
	// Series is the operation-time sample series (Config.SampleEvery).
	Series []obs.SamplePoint
	// Attribution is the region × domain reference matrix
	// (Config.Attribution).
	Attribution []obs.AttribRow

	// Shadow is the heap auditor's verdict (Config.CheckHeap): operation
	// counts, live-set totals, and any contract violations detected.
	Shadow *shadow.Snapshot

	// Sharing is the true/false-sharing attribution of a server run
	// (nil for single-threaded program runs).
	Sharing *obs.SharingSummary
}

// Run executes the configured experiment.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation. The workload driver
// polls ctx periodically inside its step loop (see workload.RunContext)
// so a cancelled or expired context stops the simulation — and with it
// the cache and VM reference sweeps it feeds — within a bounded amount
// of work; the error then satisfies errors.Is for context.Canceled or
// context.DeadlineExceeded via context.Cause. A run that completes is
// byte-identical to one executed without a cancellable context. It is
// RunBundle with one allocator, cfg.Allocator.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	res, errs := RunBundle(ctx, cfg, []string{cfg.Allocator})
	return res[0], errs[0]
}

// RunBundle runs cfg once for each of the allocators, synthesizing the
// workload once for all of them (see workload.RunBundle): each
// allocator gets its own memory, sinks and wrappers, wired exactly as a
// lone run wires them, and cfg.Allocator is ignored. It returns one
// result and one error per allocator, in order, each equal to what
// RunContext returns for that allocator alone: a lane whose allocator
// fails stops with its own error while the others finish. A Recorder
// or Attribution observes a single run, so a bundle of more than one
// allocator rejects them.
func RunBundle(ctx context.Context, cfg Config, allocators []string) ([]*Result, []error) {
	progName := cfg.Program.Name
	if cfg.Server != nil {
		progName = cfg.Server.Name
	}
	results := make([]*Result, len(allocators))
	errs := make([]error, len(allocators))
	failAll := func(err error) ([]*Result, []error) {
		for i, name := range allocators {
			errs[i] = fmt.Errorf("sim %s/%s: %w", progName, name, err)
		}
		return results, errs
	}
	if err := ctx.Err(); err != nil {
		return failAll(context.Cause(ctx))
	}
	if len(allocators) > 1 && (cfg.Recorder != nil || cfg.Attribution) {
		return failAll(errors.New("a Recorder or Attribution observes one run, not a bundle"))
	}
	if len(cfg.Caches) > 0 {
		if err := cache.ValidateGroup(cfg.Caches...); err != nil {
			return failAll(err)
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}

	pipes, lanes := newPipelines(cfg, allocators, errs)
	var stats []workload.Stats
	var werrs []error
	if cfg.Server != nil {
		stats, werrs = workload.RunServerBundle(ctx, lanes, workload.ServerRunConfig{
			Scenario: *cfg.Server,
			Scale:    cfg.Scale,
			Seed:     cfg.Seed,
		})
	} else {
		stats, werrs = workload.RunBundle(ctx, lanes, workload.Config{
			Program: cfg.Program,
			Scale:   cfg.Scale,
			Seed:    cfg.Seed,
		})
	}
	for i, p := range pipes {
		if werrs[i] != nil {
			errs[p.lane] = fmt.Errorf("sim %s/%s: %w", progName, allocators[p.lane], werrs[i])
			continue
		}
		p.m.Flush() // deliver the tail of the batched reference stream
	}

	// The runs completed; one final poll before the cache-result and
	// VM-curve assembly sweeps so a deadline that fired during the last
	// partial batch is still honoured.
	cause := ctx.Err()
	if cause != nil {
		cause = context.Cause(ctx)
	}
	for i, p := range pipes {
		switch {
		case werrs[i] != nil:
		case cause != nil:
			errs[p.lane] = fmt.Errorf("sim %s/%s: %w", progName, allocators[p.lane], cause)
		default:
			results[p.lane] = p.result(cfg, progName, allocators[p.lane], stats[i])
		}
	}
	return results, errs
}

// pipeline is one allocator's simulation: its memory, allocator and
// every sink that observes them.
type pipeline struct {
	lane    int // index into the bundle's allocators
	meter   *cost.Meter
	counter trace.Counter
	group   *cache.Group
	pages   *vm.StackSim
	sharing *cache.Sharing
	sampler *obs.Sampler
	attrib  *obs.Attribution
	shw     *shadow.Allocator
	m       *mem.Memory
	a       alloc.Allocator
}

// newPipelines builds one pipeline per allocator and the workload lanes
// that drive them. An allocator that cannot be constructed gets its
// error in errs and no lane.
func newPipelines(cfg Config, allocators []string, errs []error) ([]*pipeline, []workload.Lane) {
	var pipes []*pipeline
	var lanes []workload.Lane
	for i, name := range allocators {
		p, err := newPipeline(cfg, i, name)
		if err != nil {
			errs[i] = err
			continue
		}
		pipes = append(pipes, p)
		lanes = append(lanes, workload.Lane{Mem: p.m, Alloc: p.a})
	}
	return pipes, lanes
}

// newPipeline wires one allocator's memory, sinks and wrappers for the
// bundle's lane; RunBundle has validated cfg.Caches.
func newPipeline(cfg Config, lane int, allocName string) (*pipeline, error) {
	p := &pipeline{lane: lane, meter: &cost.Meter{}}
	sinks := []trace.Sink{&p.counter}
	if len(cfg.Caches) > 0 {
		p.group = cache.NewGroup(cfg.Caches...)
		sinks = append(sinks, p.group)
	}
	if cfg.PageSim {
		p.pages = vm.NewStackSim()
		sinks = append(sinks, p.pages)
	}
	if cfg.Sinks != nil {
		sinks = append(sinks, cfg.Sinks(lane)...)
	}

	m := mem.New(trace.NewTee(sinks...), p.meter)
	p.m = m

	// Concurrent runs attach the sharing attributor, a sink of its own
	// beside the cache group. Events are attributed to the index of the
	// containing region (region 0 for an address in none), resolved to
	// the region name at report assembly (regions only ever grow, so
	// indices are stable).
	if cfg.Server != nil {
		p.sharing = cache.NewSharing(cache.SharingConfig{RegionOf: m.RegionIndex})
		sinks = append(sinks, p.sharing)
		m.SetSink(trace.NewTee(sinks...))
	}

	// Observability layer: strictly opt-in, so the nil-Recorder path is
	// byte-for-byte the seed configuration. The extra sinks are
	// installed before the allocator is constructed so that even the
	// allocator's initialization references are attributed.
	if cfg.Recorder != nil || cfg.Attribution {
		if cfg.Attribution {
			p.attrib = obs.NewAttribution(m, p.meter)
			sinks = append(sinks, p.attrib)
		}
		if cfg.Recorder != nil {
			cfg.Recorder.FootprintFn = m.Footprint
			if cfg.SampleEvery > 0 {
				p.sampler = &obs.Sampler{
					Every: cfg.SampleEvery,
					Mem:   m,
					Meter: p.meter,
					Group: p.group,
					Pages: p.pages,
				}
				p.sampler.Bind(cfg.Recorder)
				sinks = append(sinks, p.sampler)
			}
		}
		m.SetSink(trace.NewTee(sinks...))
	}

	// Batched reference delivery: the counter, cache group, page
	// simulator and sampler all implement trace.BlockSink, so the hot
	// per-word emit devirtualizes into columnar buffer appends with one
	// block fan-out per buffer fill (a group of direct-mapped,
	// write-allocate, flush-free caches scans each block once for all
	// configurations; any other group expands it reference by
	// reference). Order-sensitive sinks (obs.Attribution reads the
	// meter's current domain per reference) are plain Sinks and keep
	// receiving every reference synchronously.
	m.SetBatching(0)

	a, err := alloc.New(allocName, m)
	if err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		a = obs.Instrument(a, p.meter, cfg.Recorder)
	}
	// The shadow auditor wraps outermost so obs.Instrument still sees the
	// raw allocator (Scanner detection, latency attribution) while the
	// oracle observes exactly the addresses and errors the workload does.
	if cfg.CheckHeap {
		p.shw = shadow.Wrap(a, m, shadow.Options{AuditEvery: cfg.AuditEvery})
		a = p.shw
	}
	p.a = a
	return p, nil
}

// result assembles the pipeline's Result once its run has completed.
func (p *pipeline) result(cfg Config, progName, allocName string, stats workload.Stats) *Result {
	res := &Result{
		Program:        progName,
		Allocator:      allocName,
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
		Workload:       stats,
		Instr:          p.meter.Snapshot(),
		Refs:           p.counter,
		TotalFootprint: p.m.Footprint(),
	}
	for _, r := range p.m.Regions() {
		// The workload's own segments belong to the application, not
		// the allocator.
		if !workload.AppRegion(progName, r.Name()) {
			res.Footprint += r.Size()
		}
	}
	if p.group != nil {
		res.Caches = p.group.Results()
	}
	if p.pages != nil {
		res.Curve = p.pages.Curve()
	}
	res.Recorder = cfg.Recorder
	if p.sampler != nil {
		res.Series = p.sampler.Points()
	}
	if p.attrib != nil {
		res.Attribution = p.attrib.Rows()
	}
	if p.shw != nil {
		// One final full audit so end-of-run heap corruption is caught
		// even when the op count never hit the periodic cadence.
		p.shw.Audit()
		res.Shadow = p.shw.Snapshot()
	}
	if p.sharing != nil {
		res.Sharing = sharingSummary(p.sharing.Report(), p.m.Regions(), cfg.Server.Threads)
	}
	return res
}

// sharingSummary resolves the attributor's region indices to region
// names for the report.
func sharingSummary(rep cache.SharingReport, regions []*mem.Region, threads int) *obs.SharingSummary {
	s := &obs.SharingSummary{
		Threads:     threads,
		TrueEvents:  rep.True,
		FalseEvents: rep.False,
		PingLines:   rep.PingLines,
	}
	for _, row := range rep.Rows {
		name := "?"
		if row.Region >= 0 && row.Region < len(regions) {
			name = regions[row.Region].Name()
		}
		s.Rows = append(s.Rows, obs.SharingRow{
			Region:      name,
			Tid:         uint32(row.Tid),
			TrueEvents:  row.True,
			FalseEvents: row.False,
		})
	}
	return s
}

// AllocFraction returns the fraction of instructions spent in malloc
// and free (Figure 1's y-axis).
func (r *Result) AllocFraction() float64 {
	t := r.Instr.Total()
	if t == 0 {
		return 0
	}
	return float64(r.Instr.Malloc+r.Instr.Free) / float64(t)
}

// CacheResult returns the result for the cache of the given size, or
// false when that size was not simulated.
func (r *Result) CacheResult(size uint64) (cache.Result, bool) {
	for _, c := range r.Caches {
		if c.Config.Size == size {
			return c, true
		}
	}
	return cache.Result{}, false
}

// BaseCycles is the execution time in cycles ignoring the memory
// hierarchy: the instruction count (loads and stores complete in one
// cycle).
func (r *Result) BaseCycles() uint64 { return r.Instr.Total() }

// MissCycles is the time spent waiting on data-cache misses for the
// cache of the given size: penalty × misses (the M·P·D term).
func (r *Result) MissCycles(cacheSize uint64, penalty uint64) uint64 {
	c, ok := r.CacheResult(cacheSize)
	if !ok {
		return 0
	}
	return penalty * c.Misses
}

// TotalCycles is the paper's estimated execution time I + M·P·D.
func (r *Result) TotalCycles(cacheSize uint64, penalty uint64) uint64 {
	return r.BaseCycles() + r.MissCycles(cacheSize, penalty)
}

// Seconds converts simulated cycles to full-scale seconds on the
// paper's test vehicle, undoing the run's scale factor so values are
// comparable with the paper's tables.
func (r *Result) Seconds(cycles uint64) float64 {
	return float64(cycles) * float64(r.Scale) / ClockHz
}
