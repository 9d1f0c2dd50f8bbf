package paper

import (
	"context"
	"fmt"

	"mallocsim/internal/sim"
	"mallocsim/internal/workload"
)

// Table1 reproduces the program inventory (descriptions only; the
// paper's Table 1 is prose).
func (r *Runner) Table1(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "General Information about the Test Programs",
		Header: []string{"Program", "Description"},
	}
	for _, p := range workload.PaperPrograms() {
		t.AddRow(p.Name, p.Description)
	}
	return t, nil
}

// Table2 reproduces "Test Program Performance Information": baseline
// statistics under the FIRSTFIT allocator. Event counts are reported
// scaled back to full-scale equivalents so they are directly comparable
// with the paper's columns.
func (r *Runner) Table2(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "table2",
		Title: "Test Program Performance Information (FIRSTFIT baseline)",
		Note:  r.note(),
		Header: []string{"Program", "Time (sec)", "Total Instr. (x10^6)", "Data Refs (x10^6)",
			"Max Heap (KB)", "Objects Alloc'd (1000s)", "Objects Freed (1000s)"},
	}
	for _, p := range workload.PaperPrograms() {
		res, err := r.Result(ctx, p.Name, "firstfit")
		if err != nil {
			return nil, err
		}
		s := r.Scale
		t.AddRow(p.Name,
			fmt.Sprintf("%.1f", res.Seconds(res.BaseCycles())),
			millions(res.Instr.Total()*s),
			millions(res.Refs.Total()*s),
			kb(res.Footprint),
			thousands(res.Workload.Allocs*s),
			thousands(res.Workload.Frees*s),
		)
	}
	return t, nil
}

// Table3 reproduces "Characteristics of Different Input Sets for
// GhostScript".
func (r *Runner) Table3(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "table3",
		Title: "Characteristics of Different Input Sets for GhostScript (FIRSTFIT)",
		Note:  r.note(),
		Header: []string{"Input", "Time (sec)", "Total Instr. (x10^6)", "Data Refs (x10^6)",
			"Max Heap (KB)", "Objects Alloc'd (1000s)", "Objects Freed (1000s)"},
	}
	for _, p := range workload.GhostScriptInputs() {
		res, err := r.Result(ctx, p.Name, "firstfit")
		if err != nil {
			return nil, err
		}
		s := r.Scale
		t.AddRow(p.Name,
			fmt.Sprintf("%.1f", res.Seconds(res.BaseCycles())),
			millions(res.Instr.Total()*s),
			millions(res.Refs.Total()*s),
			kb(res.Footprint),
			thousands(res.Workload.Allocs*s),
			thousands(res.Workload.Frees*s),
		)
	}
	return t, nil
}

// execTimeTable builds Table 4 (16 K) or Table 5 (64 K): total
// estimated execution time and the portion attributable to cache
// misses, in full-scale seconds, for every allocator and program.
func (r *Runner) execTimeTable(ctx context.Context, id string, cacheSize uint64) (*Table, error) {
	t := &Table{
		ID: id,
		Title: fmt.Sprintf("Total estimated execution time and time waiting for a %dK direct-mapped cache (sec total / sec miss)",
			cacheSize>>10),
		Note:   r.note(),
		Header: []string{"Allocator"},
	}
	progs := workload.PaperPrograms()
	for _, p := range progs {
		t.Header = append(t.Header, p.Name)
	}
	for _, a := range Allocators {
		row := []string{a}
		for _, p := range progs {
			res, err := r.Result(ctx, p.Name, a)
			if err != nil {
				return nil, err
			}
			total := res.Seconds(res.TotalCycles(cacheSize, sim.DefaultPenalty))
			miss := res.Seconds(res.MissCycles(cacheSize, sim.DefaultPenalty))
			row = append(row, fmt.Sprintf("%.2f/%.2f", total, miss))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table4 reproduces the 16-kilobyte execution-time table.
func (r *Runner) Table4(ctx context.Context) (*Table, error) {
	return r.execTimeTable(ctx, "table4", 16<<10)
}

// Table5 reproduces the 64-kilobyte execution-time table.
func (r *Runner) Table5(ctx context.Context) (*Table, error) {
	return r.execTimeTable(ctx, "table5", 64<<10)
}

// Table6 reproduces the boundary-tag ablation: GNU LOCAL run normally
// and with eight bytes of per-object tag emulation, on a 64 K cache.
func (r *Runner) Table6(ctx context.Context) (*Table, error) {
	const cacheSize = 64 << 10
	t := &Table{
		ID:     "table6",
		Title:  "Effect of boundary tags on execution time in the GNU LOCAL allocator (64K direct-mapped cache)",
		Note:   r.note(),
		Header: []string{"Metric", "espresso", "gs", "ptc", "gawk", "make"},
	}
	progs := workload.PaperPrograms()
	type cell struct {
		missRate    float64
		penaltyFrac float64
		total       uint64
	}
	get := func(allocName string) ([]cell, error) {
		out := make([]cell, len(progs))
		for i, p := range progs {
			res, err := r.Result(ctx, p.Name, allocName)
			if err != nil {
				return nil, err
			}
			c, _ := res.CacheResult(cacheSize)
			total := res.TotalCycles(cacheSize, sim.DefaultPenalty)
			out[i] = cell{
				missRate:    c.MissRate(),
				penaltyFrac: float64(res.MissCycles(cacheSize, sim.DefaultPenalty)) / float64(total),
				total:       total,
			}
		}
		return out, nil
	}
	withTags, err := get("gnulocal-tags")
	if err != nil {
		return nil, err
	}
	noTags, err := get("gnulocal")
	if err != nil {
		return nil, err
	}
	row := func(name string, f func(i int) string) {
		cells := []string{name}
		for i := range progs {
			cells = append(cells, f(i))
		}
		t.AddRow(cells...)
	}
	row("(w/tags) Miss rate (%)", func(i int) string { return f3(withTags[i].missRate * 100) })
	row("(w/tags) Miss penalty (% of exec time)", func(i int) string { return f2(withTags[i].penaltyFrac * 100) })
	row("(no tags) Miss rate (%)", func(i int) string { return f3(noTags[i].missRate * 100) })
	row("(no tags) Miss penalty (% of exec time)", func(i int) string { return f2(noTags[i].penaltyFrac * 100) })
	row("Penalty due to boundary tags (% of exec time)", func(i int) string {
		return f2((float64(withTags[i].total)/float64(noTags[i].total) - 1) * 100)
	})
	return t, nil
}
