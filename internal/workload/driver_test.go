package workload

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mallocsim/internal/alloc"
	_ "mallocsim/internal/alloc/all"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

func TestDeathQueueOrdering(t *testing.T) {
	var q deathQueue
	r := rng.New(5)
	steps := make([]uint64, 200)
	for i := range steps {
		steps[i] = r.Uint64n(1000)
		q.push(deathEvent{step: steps[i]})
	}
	prev := uint64(0)
	for range steps {
		e := q.pop()
		if e.step < prev {
			t.Fatalf("heap order violated: %d after %d", e.step, prev)
		}
		prev = e.step
	}
	if len(q) != 0 {
		t.Errorf("queue not drained: %d left", len(q))
	}
}

func runProgram(t *testing.T, progName, allocName string, scale, seed uint64) (Stats, *cost.Meter, *trace.Counter, *mem.Memory) {
	t.Helper()
	meter := &cost.Meter{}
	var counter trace.Counter
	m := mem.New(&counter, meter)
	a, err := alloc.New(allocName, m)
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := ByName(progName)
	if !ok {
		t.Fatalf("no program %q", progName)
	}
	stats, err := Run(m, a, Config{Program: prog, Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return stats, meter, &counter, m
}

func statKey(s Stats) [5]uint64 {
	return [5]uint64{s.Allocs, s.Frees, s.FinalLive, s.LiveBytes, s.ReqBytes}
}

func TestRunDeterminism(t *testing.T) {
	s1, m1, c1, mem1 := runProgram(t, "espresso", "bsd", 256, 7)
	s2, m2, c2, mem2 := runProgram(t, "espresso", "bsd", 256, 7)
	if statKey(s1) != statKey(s2) {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
	if m1.Total() != m2.Total() || c1.Total() != c2.Total() || mem1.Footprint() != mem2.Footprint() {
		t.Error("meters/counters/footprints differ across identical runs")
	}
	s3, _, _, _ := runProgram(t, "espresso", "bsd", 256, 8)
	if statKey(s3) == statKey(s1) {
		t.Error("different seeds produced identical stats")
	}
}

// TestOperationSequenceAllocatorIndependent: the workload must issue the
// identical op sequence (sizes, counts, deaths) regardless of which
// allocator serves it, so cross-allocator comparisons are apples to
// apples.
func TestOperationSequenceAllocatorIndependent(t *testing.T) {
	s1, _, _, _ := runProgram(t, "gawk", "firstfit", 256, 3)
	s2, _, _, _ := runProgram(t, "gawk", "gnulocal", 256, 3)
	if s1.Allocs != s2.Allocs || s1.Frees != s2.Frees || s1.ReqBytes != s2.ReqBytes {
		t.Errorf("op sequences differ across allocators: %+v vs %+v", s1, s2)
	}
}

func TestBudgetsOnTarget(t *testing.T) {
	const scale = 64
	for _, name := range []string{"espresso", "gawk", "gs-small"} {
		prog, _ := ByName(name)
		stats, meter, counter, _ := runProgram(t, name, "bsd", scale, 1)
		wantAllocs := prog.Allocs / scale
		if stats.Allocs != wantAllocs {
			t.Errorf("%s: allocs %d, want %d", name, stats.Allocs, wantAllocs)
		}
		// Instructions and references should land within 25% of the
		// scaled Table 2 targets (allocator overhead rides on top of
		// instructions).
		wantInstr := float64(prog.Instr) / scale
		if got := float64(meter.Total()); got < wantInstr*0.8 || got > wantInstr*1.3 {
			t.Errorf("%s: instr %.0f, want within 25%% of %.0f", name, got, wantInstr)
		}
		wantRefs := float64(prog.DataRefs) / scale
		if got := float64(counter.Total()); got < wantRefs*0.75 || got > wantRefs*1.35 {
			t.Errorf("%s: refs %.0f, want within ~30%% of %.0f", name, got, wantRefs)
		}
	}

	// The server scenario spends the same calibrated budgets per request;
	// every request allocates one object on top of the primed sessions.
	scen, _ := ServerByName("server")
	meter := &cost.Meter{}
	var counter trace.Counter
	m := mem.New(&counter, meter)
	a, err := alloc.New("bsd", m)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunServerContext(context.Background(), m, a, ServerRunConfig{Scenario: scen, Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := scen.Requests/scale + uint64(scen.Sessions); stats.Allocs < want {
		t.Errorf("server: allocs %d, want at least %d", stats.Allocs, want)
	}
	wantInstr := float64(scen.Instr) / scale
	if got := float64(meter.Total()); got < wantInstr*0.8 || got > wantInstr*1.3 {
		t.Errorf("server: instr %.0f, want within 25%% of %.0f", got, wantInstr)
	}
	wantRefs := float64(scen.DataRefs) / scale
	if got := float64(counter.Total()); got < wantRefs*0.75 || got > wantRefs*1.35 {
		t.Errorf("server: refs %.0f, want within ~30%% of %.0f", got, wantRefs)
	}
}

// TestFootprintPreservedAcrossScales: for churn-dominated programs the
// immortal core is unscaled, so the heap footprint should be similar at
// different scales (the property that makes scaled cache results
// meaningful).
func TestFootprintPreservedAcrossScales(t *testing.T) {
	_, _, _, m64 := runProgram(t, "gawk", "bsd", 64, 1)
	_, _, _, m256 := runProgram(t, "gawk", "bsd", 256, 1)
	f64, f256 := float64(m64.Footprint()), float64(m256.Footprint())
	if f256 < f64*0.5 || f256 > f64*2 {
		t.Errorf("gawk footprint not preserved: %v at /64 vs %v at /256", f64, f256)
	}
}

func TestFootprintNearTable2(t *testing.T) {
	// At moderate scale the modelled heap should land near the paper's
	// maximum heap size (within 2x: allocator overhead varies).
	for _, c := range []struct {
		name  string
		scale uint64
	}{
		// make cannot preserve its footprint when scaled (half its
		// objects are immortal, so heap size tracks allocation count):
		// validate it at full scale.
		{"espresso", 32}, {"gawk", 32}, {"make", 1}, {"gs-small", 8},
	} {
		prog, _ := ByName(c.name)
		_, _, _, m := runProgram(t, c.name, "gnulocal", c.scale, 1)
		var heap uint64
		for _, r := range m.Regions() {
			switch r.Name() {
			case c.name + "-stack", c.name + "-globals":
			default:
				heap += r.Size()
			}
		}
		target := float64(prog.MaxHeapKB * 1024)
		if got := float64(heap); got < target*0.4 || got > target*2.5 {
			t.Errorf("%s: heap %d bytes, paper says %d KB", c.name, heap, prog.MaxHeapKB)
		}
	}
}

func TestPTCNeverFrees(t *testing.T) {
	stats, _, _, _ := runProgram(t, "ptc", "firstfit", 64, 1)
	if stats.Frees != 0 {
		t.Errorf("ptc freed %d objects", stats.Frees)
	}
	if stats.FinalLive != stats.Allocs {
		t.Errorf("live %d != allocs %d", stats.FinalLive, stats.Allocs)
	}
}

func TestFreesRoughlyMatchModel(t *testing.T) {
	prog, _ := ByName("espresso")
	const scale = 64
	stats, _, _, _ := runProgram(t, "espresso", "quickfit", scale, 1)
	// The immortal core keeps its full-scale count (footprint
	// preservation), so at scale s the expected free fraction is
	// (nAllocs - immortals)/nAllocs, less a small end-of-run tail of
	// churn objects whose deaths fall past the horizon.
	nAllocs := prog.Allocs / scale
	immortals := prog.ImmortalCount()
	if immortals > nAllocs/2 {
		immortals = nAllocs / 2
	}
	churn := nAllocs - immortals
	if stats.Frees > churn {
		t.Errorf("freed %d > churn objects %d", stats.Frees, churn)
	}
	if float64(stats.Frees) < float64(churn)*0.85 {
		t.Errorf("freed %d of %d churn objects (< 85%%)", stats.Frees, churn)
	}
	if stats.FinalLive != stats.Allocs-stats.Frees {
		t.Errorf("live accounting: %d != %d - %d", stats.FinalLive, stats.Allocs, stats.Frees)
	}
	if stats.LiveBytes == 0 {
		t.Error("no live bytes at exit")
	}
	// At full scale the model reproduces the paper's ratio closely.
	fullFrac := float64(prog.Allocs-prog.ImmortalCount()) / float64(prog.Allocs)
	paperFrac := float64(prog.Frees) / float64(prog.Allocs)
	if fullFrac < paperFrac-0.01 || fullFrac > paperFrac+0.01 {
		t.Errorf("full-scale free fraction %.3f vs paper %.3f", fullFrac, paperFrac)
	}
}

func TestScaleDefaultsToOneish(t *testing.T) {
	// Scale 0 must behave as scale 1 (full run) — use tiny make at its
	// natural size? Full make is 24k allocs: acceptable.
	stats, _, _, _ := runProgram(t, "make", "bsd", 0, 1)
	prog, _ := ByName("make")
	if stats.Allocs != prog.Allocs {
		t.Errorf("scale 0: allocs %d, want full %d", stats.Allocs, prog.Allocs)
	}
}

func TestFragmentationSamples(t *testing.T) {
	prog, _ := ByName("espresso")
	meter := &cost.Meter{}
	m := mem.New(trace.Discard, meter)
	a, err := alloc.New("bsd", m)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(m, a, Config{Program: prog, Scale: 128, Seed: 1, SampleEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	wantSamples := int(prog.Allocs/128/500) + 1
	if len(stats.Samples) != wantSamples {
		t.Fatalf("got %d samples, want %d", len(stats.Samples), wantSamples)
	}
	prevStep := uint64(0)
	for i, s := range stats.Samples {
		if i > 0 && s.Step <= prevStep {
			t.Fatal("sample steps not increasing")
		}
		prevStep = s.Step
		if s.HeapBytes < s.LiveBytes {
			t.Errorf("sample %d: heap %d below live payload %d", i, s.HeapBytes, s.LiveBytes)
		}
	}
	last := stats.Samples[len(stats.Samples)-1]
	if last.Overhead() < 1 || last.Overhead() > 5 {
		t.Errorf("final overhead %.2f implausible", last.Overhead())
	}
	if (Sample{}).Overhead() != 0 {
		t.Error("zero sample overhead should be 0")
	}
}

// TestSetupFailureHasNoStats: a lane whose globals cannot be mapped
// fails before the application starts, so it returns no statistics —
// alone, or in a bundle whose other lanes finish — and so does a server
// scenario with an invalid thread count.
func TestSetupFailureHasNoStats(t *testing.T) {
	prog, ok := ByName("gawk")
	if !ok {
		t.Fatal("no gawk program")
	}
	cfg := Config{Program: prog, Scale: 1024, Seed: 1}
	newLane := func(limit uint64) Lane {
		m := mem.New(trace.Discard, nil)
		m.DefaultRegionLimit = limit
		a, err := alloc.New("firstfit", m)
		if err != nil {
			t.Fatal(err)
		}
		return Lane{Mem: m, Alloc: a}
	}
	const tight = 4 << 10 // below gawk's global segment
	l := newLane(tight)
	stats, err := Run(l.Mem, l.Alloc, cfg)
	if !errors.Is(err, mem.ErrOutOfMemory) || !reflect.DeepEqual(stats, Stats{}) {
		t.Errorf("lone run: got %+v, %v; want no statistics and an out-of-memory error", stats, err)
	}

	all, errs := RunBundle(context.Background(), []Lane{newLane(tight), newLane(0)}, cfg)
	if !errors.Is(errs[0], mem.ErrOutOfMemory) || !reflect.DeepEqual(all[0], Stats{}) {
		t.Errorf("failing lane: got %+v, %v; want no statistics and an out-of-memory error", all[0], errs[0])
	}
	if errs[1] != nil || all[1].Allocs == 0 {
		t.Errorf("the other lane: got %+v, %v; want a finished run", all[1], errs[1])
	}

	scen, ok := ServerByName("server")
	if !ok {
		t.Fatal("no server scenario")
	}
	scen.Threads = 1
	l = newLane(0)
	stats, err = RunServerContext(context.Background(), l.Mem, l.Alloc, ServerRunConfig{Scenario: scen, Scale: 1024, Seed: 1})
	if err == nil || !reflect.DeepEqual(stats, Stats{}) {
		t.Errorf("one-thread server: got %+v, %v; want no statistics and an error", stats, err)
	}
}
