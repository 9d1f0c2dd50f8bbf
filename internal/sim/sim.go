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
	"fmt"
	"strings"

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
// byte-identical to one executed without a cancellable context.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	progName := cfg.Program.Name
	if cfg.Server != nil {
		progName = cfg.Server.Name
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim %s/%s: %w", progName, cfg.Allocator, context.Cause(ctx))
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}

	meter := &cost.Meter{}
	var counter trace.Counter
	sinks := []trace.Sink{&counter}
	var group *cache.Group
	if len(cfg.Caches) > 0 {
		group = cache.NewGroup(cfg.Caches...)
		sinks = append(sinks, group)
	}
	var pages *vm.StackSim
	if cfg.PageSim {
		pages = vm.NewStackSim()
		sinks = append(sinks, pages)
	}

	m := mem.New(trace.NewTee(sinks...), meter)

	// Concurrent runs attach the sharing attributor, a sink of its own
	// beside the cache group. Events are attributed to the index of the
	// containing region (region 0 for an address in none), resolved to
	// the region name at report assembly (regions only ever grow, so
	// indices are stable).
	var sharing *cache.Sharing
	if cfg.Server != nil {
		sharing = cache.NewSharing(cache.SharingConfig{RegionOf: m.RegionIndex})
		sinks = append(sinks, sharing)
		m.SetSink(trace.NewTee(sinks...))
	}

	// Observability layer: strictly opt-in, so the nil-Recorder path is
	// byte-for-byte the seed configuration. The extra sinks are
	// installed before the allocator is constructed so that even the
	// allocator's initialization references are attributed.
	var sampler *obs.Sampler
	var attrib *obs.Attribution
	if cfg.Recorder != nil || cfg.Attribution {
		if cfg.Attribution {
			attrib = obs.NewAttribution(m, meter)
			sinks = append(sinks, attrib)
		}
		if cfg.Recorder != nil {
			cfg.Recorder.FootprintFn = m.Footprint
			if cfg.SampleEvery > 0 {
				sampler = &obs.Sampler{
					Every: cfg.SampleEvery,
					Mem:   m,
					Meter: meter,
					Group: group,
					Pages: pages,
				}
				sampler.Bind(cfg.Recorder)
				sinks = append(sinks, sampler)
			}
		}
		m.SetSink(trace.NewTee(sinks...))
	}

	// Batched reference delivery: the counter, cache group, page
	// simulator and sampler all implement trace.BlockSink, so the hot
	// per-word emit devirtualizes into columnar buffer appends with one
	// block fan-out per buffer fill (the cache group decomposes each
	// block's addresses into a run-length-collapsed line stream once
	// for all configurations). Order-sensitive sinks (obs.Attribution
	// reads the meter's current domain per reference) implement neither
	// BatchSink nor BlockSink and keep receiving every reference
	// synchronously.
	m.SetBatching(0)

	a, err := alloc.New(cfg.Allocator, m)
	if err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		a = obs.Instrument(a, meter, cfg.Recorder)
	}
	// The shadow auditor wraps outermost so obs.Instrument still sees the
	// raw allocator (Scanner detection, latency attribution) while the
	// oracle observes exactly the addresses and errors the workload does.
	var shw *shadow.Allocator
	if cfg.CheckHeap {
		shw = shadow.Wrap(a, m, shadow.Options{AuditEvery: cfg.AuditEvery})
		a = shw
	}

	var stats workload.Stats
	if cfg.Server != nil {
		stats, err = workload.RunServerContext(ctx, m, a, workload.ServerRunConfig{
			Scenario: *cfg.Server,
			Scale:    cfg.Scale,
			Seed:     cfg.Seed,
		})
	} else {
		stats, err = workload.RunContext(ctx, m, a, workload.Config{
			Program: cfg.Program,
			Scale:   cfg.Scale,
			Seed:    cfg.Seed,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("sim %s/%s: %w", progName, cfg.Allocator, err)
	}
	m.Flush() // deliver the tail of the batched reference stream

	// The run completed; one final poll before the cache-result and
	// VM-curve assembly sweeps so a deadline that fired during the last
	// partial batch is still honoured.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim %s/%s: %w", progName, cfg.Allocator, context.Cause(ctx))
	}

	res := &Result{
		Program:        progName,
		Allocator:      cfg.Allocator,
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
		Workload:       stats,
		Instr:          meter.Snapshot(),
		Refs:           counter,
		TotalFootprint: m.Footprint(),
	}
	for _, r := range m.Regions() {
		// The workload's own segments — "<prog>-stack" (plus the server
		// driver's per-thread "<prog>-stackN") and "<prog>-globals" —
		// belong to the application, not the allocator.
		name := r.Name()
		if name == progName+"-globals" || strings.HasPrefix(name, progName+"-stack") {
			continue
		}
		res.Footprint += r.Size()
	}
	if group != nil {
		res.Caches = group.Results()
	}
	if pages != nil {
		res.Curve = pages.Curve()
	}
	res.Recorder = cfg.Recorder
	if sampler != nil {
		res.Series = sampler.Points()
	}
	if attrib != nil {
		res.Attribution = attrib.Rows()
	}
	if shw != nil {
		// One final full audit so end-of-run heap corruption is caught
		// even when the op count never hit the periodic cadence.
		shw.Audit()
		res.Shadow = shw.Snapshot()
	}
	if sharing != nil {
		res.Sharing = sharingSummary(sharing.Report(), m.Regions(), cfg.Server.Threads)
	}
	return res, nil
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
