package paper

import (
	"context"
	"fmt"

	"mallocsim/internal/sim"
	"mallocsim/internal/vm"
	"mallocsim/internal/workload"
)

// Figure1 reproduces "Percent of Time in Malloc and Free": the fraction
// of all instructions spent inside the allocator, per program and
// allocator, ignoring the memory hierarchy.
func (r *Runner) Figure1(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "figure1",
		Title:  "Percent of Time in Malloc and Free (as % of Execution Time)",
		Note:   r.note(),
		Header: append([]string{"Program"}, Allocators...),
	}
	for _, p := range workload.PaperPrograms() {
		row := []string{p.Name}
		for _, a := range Allocators {
			res, err := r.Result(ctx, p.Name, a)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(res.AllocFraction()*100))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// faultFigure builds Figure 2 (GhostScript) or Figure 3 (PTC): page
// fault rate as a function of physical memory size, per allocator.
// The paper plots faults per memory reference on a log axis; we report
// faults per million references at a grid of memory sizes, plus each
// allocator's total memory request (the symbols on the paper's x-axis).
func (r *Runner) faultFigure(ctx context.Context, id, progName string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Page fault rate for %s as a function of physical memory size (faults per million references)", progName),
		Note:   r.note(),
		Header: append([]string{"Memory (KB)"}, Allocators...),
	}
	curves := map[string]*vm.Curve{}
	maxPages := uint64(0)
	for _, a := range Allocators {
		res, err := r.Result(ctx, progName, a)
		if err != nil {
			return nil, err
		}
		if res.Curve == nil {
			return nil, fmt.Errorf("paper: %s/%s has no page simulation", progName, a)
		}
		curves[a] = res.Curve
		if mp := res.Curve.MinResidentPages(); mp > maxPages {
			maxPages = mp
		}
	}
	fractions := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0}
	prev := uint64(0)
	for _, f := range fractions {
		pages := uint64(float64(maxPages)*f + 0.5)
		if pages < 2 {
			pages = 2
		}
		if pages == prev {
			continue
		}
		prev = pages
		row := []string{fmt.Sprintf("%d", pages*4)}
		for _, a := range Allocators {
			c := curves[a]
			perM := float64(c.Faults(pages)) / float64(c.Refs) * 1e6
			row = append(row, fmt.Sprintf("%.1f", perM))
		}
		t.AddRow(row...)
	}
	// Total memory requested per allocator: the paper's x-axis symbols.
	row := []string{"mem requested (KB)"}
	for _, a := range Allocators {
		res, _ := r.Result(ctx, progName, a)
		row = append(row, kb(res.TotalFootprint))
	}
	t.AddRow(row...)
	return t, nil
}

// Figure2 reproduces the GhostScript paging curves.
func (r *Runner) Figure2(ctx context.Context) (*Table, error) {
	return r.faultFigure(ctx, "figure2", "gs")
}

// Figure3 reproduces the PTC paging curves.
func (r *Runner) Figure3(ctx context.Context) (*Table, error) {
	return r.faultFigure(ctx, "figure3", "ptc")
}

// normTimeFigure builds Figure 4 (16 K) or Figure 5 (64 K): program
// execution time normalized to FIRSTFIT's no-cache time, both ignoring
// the memory hierarchy ("base") and including cache miss delays at the
// configured penalty ("+cache").
func (r *Runner) normTimeFigure(ctx context.Context, id string, cacheSize uint64) (*Table, error) {
	t := &Table{
		ID: id,
		Title: fmt.Sprintf("Normalized execution time with %dK direct-mapped cache, %d-cycle miss penalty (base / with cache)",
			cacheSize>>10, sim.DefaultPenalty),
		Note:   r.note(),
		Header: append([]string{"Program"}, Allocators...),
	}
	for _, p := range workload.PaperPrograms() {
		ff, err := r.Result(ctx, p.Name, "firstfit")
		if err != nil {
			return nil, err
		}
		denom := float64(ff.BaseCycles())
		row := []string{p.Name}
		for _, a := range Allocators {
			res, err := r.Result(ctx, p.Name, a)
			if err != nil {
				return nil, err
			}
			base := float64(res.BaseCycles()) / denom
			with := float64(res.TotalCycles(cacheSize, sim.DefaultPenalty)) / denom
			row = append(row, fmt.Sprintf("%.3f/%.3f", base, with))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure4 reproduces the 16 K normalized execution times.
func (r *Runner) Figure4(ctx context.Context) (*Table, error) {
	return r.normTimeFigure(ctx, "figure4", 16<<10)
}

// Figure5 reproduces the 64 K normalized execution times.
func (r *Runner) Figure5(ctx context.Context) (*Table, error) {
	return r.normTimeFigure(ctx, "figure5", 64<<10)
}

// missRateFigure builds Figures 6–8: data cache miss rate versus cache
// size for one GhostScript input set.
func (r *Runner) missRateFigure(ctx context.Context, id, progName, label string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Data cache miss rate for GhostScript (%s), direct-mapped, 32-byte lines (%%)", label),
		Note:   r.note(),
		Header: append([]string{"Cache (KB)"}, Allocators...),
	}
	for _, size := range CacheSizes {
		row := []string{fmt.Sprintf("%d", size>>10)}
		for _, a := range Allocators {
			res, err := r.Result(ctx, progName, a)
			if err != nil {
				return nil, err
			}
			c, ok := res.CacheResult(size)
			if !ok {
				return nil, fmt.Errorf("paper: %s/%s missing %d cache", progName, a, size)
			}
			row = append(row, f3(c.MissRate()*100))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure6 reproduces the GS-Small miss-rate sweep.
func (r *Runner) Figure6(ctx context.Context) (*Table, error) {
	return r.missRateFigure(ctx, "figure6", "gs-small", "GS-Small")
}

// Figure7 reproduces the GS-Medium miss-rate sweep.
func (r *Runner) Figure7(ctx context.Context) (*Table, error) {
	return r.missRateFigure(ctx, "figure7", "gs-medium", "GS-Medium")
}

// Figure8 reproduces the GS-Large miss-rate sweep.
func (r *Runner) Figure8(ctx context.Context) (*Table, error) {
	return r.missRateFigure(ctx, "figure8", "gs", "GS-Large")
}

// Figure9 turns the paper's size-mapping-array architecture sketch into
// a measurable ablation: BSD's power-of-two rounding versus the
// recommended architecture with power-of-two classes, with
// bounded-fragmentation classes, and with chunk reclamation, all on the
// allocation-heaviest small-object program (gawk) and on espresso.
func (r *Runner) Figure9(ctx context.Context) (*Table, error) {
	allocs := []string{"bsd", "quickfit", "custom-pow2", "custom", "custom-reclaim"}
	t := &Table{
		ID:     "figure9",
		Title:  "Mapping Allocation Requests: §4.4 recommended architecture vs BSD/QuickFit (per program: alloc-time% / heap KB / 16K miss% / 64K miss%)",
		Note:   r.note(),
		Header: append([]string{"Program"}, allocs...),
	}
	for _, progName := range []string{"gawk", "espresso"} {
		row := []string{progName}
		for _, a := range allocs {
			res, err := r.Result(ctx, progName, a)
			if err != nil {
				return nil, err
			}
			c16, _ := res.CacheResult(16 << 10)
			c64, _ := res.CacheResult(64 << 10)
			row = append(row, fmt.Sprintf("%.1f/%s/%.2f/%.2f",
				res.AllocFraction()*100, kb(res.Footprint), c16.MissRate()*100, c64.MissRate()*100))
		}
		t.AddRow(row...)
	}
	return t, nil
}
