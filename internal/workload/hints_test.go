package workload

import (
	"testing"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/obs"
	"mallocsim/internal/trace"
)

// unhinted hides every capability of the wrapped allocator but the
// plain Allocator interface — MallocLocal and Unwrap included — so the
// driver reaches it only through Malloc/Free.
type unhinted struct{ alloc.Allocator }

// runHinted executes one run, optionally with the allocator's hints
// hidden (see unhinted) or under obs instrumentation.
func runHinted(t *testing.T, allocName string, hide, instrument bool) (Stats, trace.Counter, uint64) {
	t.Helper()
	meter := &cost.Meter{}
	var counter trace.Counter
	m := mem.New(&counter, meter)
	a, err := alloc.New(allocName, m)
	if err != nil {
		t.Fatal(err)
	}
	if hide {
		a = unhinted{a}
	}
	if instrument {
		a = obs.Instrument(a, meter, &obs.Recorder{})
	}
	prog, ok := ByName("espresso")
	if !ok {
		t.Fatal("no espresso program")
	}
	stats, err := Run(m, a, Config{Program: prog, Scale: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return stats, counter, m.Footprint()
}

// For a hint-aware allocator the hints must actually steer placement:
// hiding them — locarena's plain Malloc is MallocLocal with locality 0
// — changes the reference stream (same op counts, a different heap
// layout).
func TestHintsSteerLocarena(t *testing.T) {
	s1, c1, f1 := runHinted(t, "locarena", false, false)
	s2, c2, f2 := runHinted(t, "locarena", true, false)
	if s1.Allocs != s2.Allocs || s1.Frees != s2.Frees {
		t.Fatalf("op counts should not depend on hints: %+v vs %+v", s1, s2)
	}
	if c1 == c2 && f1 == f2 {
		t.Errorf("hints had no observable effect on locarena (footprint %d, refs %+v)", f1, c1)
	}
	if f1 <= f2 {
		t.Logf("note: hinted footprint %d ≤ unhinted %d", f1, f2)
	}
}

// Hints survive the obs instrumentation wrapper: a wrapped hinted run
// reproduces the unwrapped hinted run's workload stats and footprint
// (alloc.HintAware sees through Unwrap, and the wrapper forwards
// MallocLocal).
func TestHintsFlowThroughInstrumentation(t *testing.T) {
	s1, _, f1 := runHinted(t, "locarena", false, false)
	s2, _, f2 := runHinted(t, "locarena", false, true)
	if statKey(s1) != statKey(s2) {
		t.Errorf("stats diverged under instrumentation: %+v vs %+v", s1, s2)
	}
	if f1 != f2 {
		t.Errorf("footprint diverged under instrumentation: %d vs %d", f1, f2)
	}
	// And a wrapped site-aware allocator keeps its site path: the
	// wrapper implements MallocLocal unconditionally, so a naive
	// hint-first dispatch would silently drop lifetime's site data.
	s3, _, f3 := runHinted(t, "lifetime", false, false)
	s4, _, f4 := runHinted(t, "lifetime", false, true)
	if statKey(s3) != statKey(s4) || f3 != f4 {
		t.Errorf("wrapped site-aware run diverged: %+v/%d vs %+v/%d", s3, f3, s4, f4)
	}
}
