package workload

import (
	"context"
	"fmt"

	"mallocsim/internal/alloc"
	"mallocsim/internal/mem"
)

// Config parameterizes one driver run.
type Config struct {
	Program Program
	// Scale divides the program's event counts: Scale 16 runs 1/16 of
	// the allocations, references and instructions. The long-lived
	// object count is *not* scaled (it is interleaved more densely), so
	// for churn-dominated programs the heap footprint — and therefore
	// cache and paging behaviour — is preserved across scales. Scale 1
	// reproduces Table 2 exactly.
	Scale uint64
	// Seed makes runs reproducible; the same seed yields the identical
	// operation sequence regardless of allocator.
	Seed uint64
	// SampleEvery, when non-zero, captures a fragmentation sample every
	// that many allocation steps: live payload bytes versus heap bytes
	// requested from the OS. The series shows how each allocator's
	// space overhead evolves (the paper's §4.1 space-efficiency axis).
	SampleEvery uint64
}

// Sample is one point of the fragmentation time series.
type Sample struct {
	Step uint64
	// LiveBytes is the payload currently allocated by the program.
	LiveBytes uint64
	// HeapBytes is what the allocator has requested from the OS
	// (excluding the workload's own stack/global segments).
	HeapBytes uint64
}

// Overhead returns HeapBytes per live payload byte.
func (s Sample) Overhead() float64 {
	if s.LiveBytes == 0 {
		return 0
	}
	return float64(s.HeapBytes) / float64(s.LiveBytes)
}

// Run drives the program model against allocator a on memory m,
// creating stack and global regions on m for the application's
// non-heap references. The allocator must already be constructed on
// the same memory. References flow to m's sink; instructions to its
// meter with malloc/free time in the proper cost domains.
func Run(m *mem.Memory, a alloc.Allocator, cfg Config) (Stats, error) {
	return RunContext(context.Background(), m, a, cfg)
}

// RunContext is Run with cooperative cancellation: the step loop polls
// ctx every cancelCheckEvery allocation steps, and the death drain every
// cancelCheckEvery frees, and returns early with context.Cause(ctx)
// wrapped in the error when the context is done. Cancellation does not
// perturb determinism — a run that completes produces byte-identical
// results whether or not ctx is cancellable. It is RunBundle with one
// lane.
func RunContext(ctx context.Context, m *mem.Memory, a alloc.Allocator, cfg Config) (Stats, error) {
	stats, errs := RunBundle(ctx, []Lane{{Mem: m, Alloc: a}}, cfg)
	return stats[0], errs[0]
}

// RunBundle drives the program once for a bundle of lanes: the program
// is synthesized once and every allocator call and reference is applied
// to each lane, so each lane's memory sees exactly the stream RunContext
// gives it alone. It returns each lane's Stats and error in lane order.
// A lane whose allocator fails stops alone with its lone run's error; a
// done context stops every lane with RunContext's error. On error a
// lane's Stats are the partial statistics of the moment it stopped.
func RunBundle(ctx context.Context, lanes []Lane, cfg Config) ([]Stats, []error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	p := cfg.Program
	ap, _ := newApp(lanes, p.Name, cfg.Seed, p.StackFrac, p.GlobalFrac)
	return ap.results(driveProgram(ctx, ap, cfg))
}

// driveProgram runs the program's schedule on ap. Its error ends every
// lane still running.
func driveProgram(ctx context.Context, ap *app, cfg Config) error {
	p := cfg.Program
	churn := newSizeDist(p.ChurnSizes, churnSiteBase)
	immortals := newSizeDist(p.ImmortalSizes, immortalSiteBase)
	th := ap.newThread(p.Name+"-stack", 0)
	// Global segment with a Zipf-hot set of word addresses.
	ap.newGlobals(p.GlobalBytes)
	if ap.done() {
		return nil
	}

	nAllocs := p.Allocs / cfg.Scale
	if nAllocs == 0 {
		nAllocs = 1
	}
	// The long-lived object count is kept at its full-scale value so the
	// heap footprint survives downscaling, but at extreme scales it is
	// capped so churn still dominates the run (real behaviour at any
	// scale has far more deaths than survivors). Programs that free
	// nothing (PTC) bypass this via the immortal branch below.
	immortalTarget := p.ImmortalCount()
	if p.Frees > 0 && immortalTarget > nAllocs/2 {
		immortalTarget = nAllocs / 2
	}
	// Bresenham-style interleaving spreads exactly immortalTarget
	// long-lived allocations through the run, in small bursts: real
	// programs allocate long-lived structure in clusters (loading a
	// document, building a table), not one object at a time. Bursting
	// also keeps the permanent heap from shredding the address space
	// into isolated holes beyond what real programs exhibit.
	const immortalBurst = 4
	var immAcc uint64
	var immPending uint64
	refsPerStep := p.RefsPerAlloc()
	instrPerStep := p.InstrPerAlloc()

	var deaths deathQueue
	var step uint64
	ap.where = func(err error) error { return fmt.Errorf("workload %s step %d: %w", p.Name, step, err) }
	for ; step < nAllocs; step++ {
		if step%cancelCheckEvery == 0 && ctx.Err() != nil {
			return fmt.Errorf("workload %s: aborted at step %d/%d: %w",
				p.Name, step, nAllocs, context.Cause(ctx))
		}
		// Deaths scheduled at or before this step happen first, so the
		// allocator sees the recycling opportunity the paper's
		// segregated-storage designs exploit.
		if err := ap.freeDue(ctx, &deaths, step); err != nil {
			return ap.where(err)
		}

		immortal := false
		immAcc += immortalTarget
		if immPending > 0 {
			immPending--
			immortal = true
		} else if immAcc >= nAllocs*immortalBurst {
			immAcc -= nAllocs * immortalBurst
			immPending = immortalBurst - 1
			immortal = true
		}
		sizes := churn
		if immortal || p.Frees == 0 {
			sizes = immortals
			immortal = true
		}

		obj := ap.malloc(sizes, uint32(step>>localityPhaseShift))
		if ap.done() {
			return nil
		}
		th.promote(obj)
		if !immortal {
			life := p.ShortLife
			if p.MediumFrac > 0 && ap.lifeRng.Bool(p.MediumFrac) {
				life = p.MediumLife
			}
			death := step + 1 + ap.lifeRng.Geometric(life)
			// Phase behaviour: deaths land on batch boundaries, so the
			// program releases objects in bursts.
			if b := p.FreeBatch; b > 1 {
				death = (death + b - 1) / b * b
			}
			deaths.push(deathEvent{step: death, obj: obj})
		}

		// The application initializes its new object, then computes,
		// referencing stack, globals and the heap.
		ap.refsStep = 0
		ap.initObject(obj)
		ap.spend(&th, refsPerStep, instrPerStep)

		if cfg.SampleEvery > 0 && step%cfg.SampleEvery == 0 {
			ap.sample(step)
		}
	}
	return nil
}

// Synthetic call-site identifiers: each size-distribution entry plays
// the role of one allocation site, the granularity at which Barrett &
// Zorn-style predictors observe programs. Site-aware allocators (the
// lifetime package) receive them; everything else sees plain Malloc.
const (
	churnSiteBase    = 1
	immortalSiteBase = 1001
)

// localityPhaseShift derives an object's locality hint from its birth
// step: steps in the same 2^localityPhaseShift-step window share a
// hint, modelling a program phase whose objects are born — and will be
// referenced — together. Hint-aware allocators (alloc.LocalityHinter)
// receive it; everything else is untouched, and the derivation costs
// no randomness or instructions, so non-hinted runs stay
// byte-identical.
const localityPhaseShift = 6
