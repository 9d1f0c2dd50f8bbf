package vm

import (
	"reflect"
	"testing"
	"testing/quick"

	"mallocsim/internal/mem"
	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

func pageRef(page uint64) trace.Ref {
	return trace.Ref{Addr: page * mem.PageSize, Size: 4, Kind: trace.Read}
}

// newListSim builds a simulator over the move-to-front list oracle.
func newListSim() *StackSim { return newStackSim(newMTFList()) }

func TestColdOnly(t *testing.T) {
	s := NewStackSim()
	for p := uint64(0); p < 10; p++ {
		s.Ref(pageRef(p))
	}
	c := s.Curve()
	if c.Cold != 10 || c.Refs != 10 || c.DistinctPages() != 10 {
		t.Errorf("curve: %+v", c)
	}
	// Every memory size faults exactly 10 times (all cold).
	for _, pages := range []uint64{1, 5, 100} {
		if f := c.Faults(pages); f != 10 {
			t.Errorf("Faults(%d) = %d", pages, f)
		}
	}
}

func TestStackDistances(t *testing.T) {
	s := NewStackSim()
	// Sequence: A B C A  -> A's re-reference has distance 2.
	for _, p := range []uint64{1, 2, 3, 1} {
		s.Ref(pageRef(p))
	}
	c := s.Curve()
	if c.Cold != 3 {
		t.Errorf("cold = %d", c.Cold)
	}
	if len(c.Hist) != 3 || c.Hist[2] != 1 {
		t.Errorf("hist = %v", c.Hist)
	}
	// Memory of 2 pages: the distance-2 reference faults. 3 pages: hit.
	if c.Faults(2) != 4 || c.Faults(3) != 3 {
		t.Errorf("faults: %d %d", c.Faults(2), c.Faults(3))
	}
	if c.MinResidentPages() != 3 {
		t.Errorf("min resident = %d", c.MinResidentPages())
	}
}

func TestSamePageShortCircuit(t *testing.T) {
	s := NewStackSim()
	for i := 0; i < 100; i++ {
		s.Ref(pageRef(7))
	}
	c := s.Curve()
	if c.Cold != 1 || c.Refs != 100 {
		t.Errorf("cold=%d refs=%d", c.Cold, c.Refs)
	}
	if c.Faults(1) != 1 {
		t.Errorf("faults(1) = %d", c.Faults(1))
	}
}

func TestPageSpanningRef(t *testing.T) {
	s := NewStackSim()
	s.Ref(trace.Ref{Addr: mem.PageSize - 2, Size: 4})
	if s.Curve().Refs != 2 || s.Curve().Cold != 2 {
		t.Errorf("spanning ref: %+v", s.Curve())
	}
}

func TestFaultRateMonotone(t *testing.T) {
	s := NewStackSim()
	r := rng.New(42)
	for i := 0; i < 20000; i++ {
		s.Ref(pageRef(r.Uint64n(64)))
	}
	c := s.Curve()
	prev := 2.0
	for pages := uint64(1); pages <= 70; pages++ {
		rate := c.FaultRate(pages)
		if rate > prev+1e-12 {
			t.Fatalf("fault rate increased at %d pages: %v > %v", pages, rate, prev)
		}
		prev = rate
	}
	if c.FaultRate(70) != float64(c.Cold)/float64(c.Refs) {
		t.Error("large memory should leave only cold faults")
	}
}

// bruteForceLRU simulates an LRU memory of the given size directly.
func bruteForceLRU(pagesSeq []uint64, memPages int) uint64 {
	var lru []uint64
	var faults uint64
	for _, p := range pagesSeq {
		found := -1
		for i, q := range lru {
			if q == p {
				found = i
				break
			}
		}
		if found >= 0 {
			lru = append(lru[:found], lru[found+1:]...)
		} else {
			faults++
			if len(lru) == memPages {
				lru = lru[:len(lru)-1]
			}
		}
		lru = append([]uint64{p}, lru...)
	}
	return faults
}

func TestAgainstBruteForce(t *testing.T) {
	r := rng.New(7)
	seq := make([]uint64, 4000)
	for i := range seq {
		// Zipf-ish locality plus a uniform tail.
		if r.Bool(0.7) {
			seq[i] = r.Uint64n(8)
		} else {
			seq[i] = r.Uint64n(40)
		}
	}
	s := NewStackSim()
	for _, p := range seq {
		s.Ref(pageRef(p))
	}
	c := s.Curve()
	for _, memPages := range []int{1, 2, 3, 5, 8, 13, 25, 40, 64} {
		want := bruteForceLRU(seq, memPages)
		if got := c.Faults(uint64(memPages)); got != want {
			t.Errorf("Faults(%d) = %d, brute force says %d", memPages, got, want)
		}
	}
}

func TestDefaultEngineMatchesList(t *testing.T) {
	r := rng.New(99)
	sim := NewStackSim()
	listSim := newListSim()
	for i := 0; i < 30000; i++ {
		var p uint64
		if r.Bool(0.6) {
			p = r.Uint64n(16)
		} else {
			p = r.Uint64n(500)
		}
		sim.Ref(pageRef(p))
		listSim.Ref(pageRef(p))
	}
	a, b := sim.Curve(), listSim.Curve()
	if a.Cold != b.Cold || a.Refs != b.Refs {
		t.Fatalf("cold/refs mismatch: %d/%d vs %d/%d", a.Cold, a.Refs, b.Cold, b.Refs)
	}
	if len(a.Hist) != len(b.Hist) {
		t.Fatalf("hist lengths differ: %d vs %d", len(a.Hist), len(b.Hist))
	}
	for d := range a.Hist {
		if a.Hist[d] != b.Hist[d] {
			t.Fatalf("hist[%d]: default %d list %d", d, a.Hist[d], b.Hist[d])
		}
	}
	if sim.DistinctPages() != listSim.DistinctPages() {
		t.Error("distinct pages differ")
	}
}

// Property: the default and list engines agree on arbitrary short
// traces. Over 32 pages the default engine's ring holds every page, so
// this checks the ring tier alone; TestEngineTierBoundaries and
// FuzzStackSimEngines reach the tree below it.
func TestQuickEnginesAgree(t *testing.T) {
	prop := func(raw []byte) bool {
		a := NewStackSim()
		b := newListSim()
		for _, v := range raw {
			a.Ref(pageRef(uint64(v % 32)))
			b.Ref(pageRef(uint64(v % 32)))
		}
		ca, cb := a.Curve(), b.Curve()
		if ca.Cold != cb.Cold || len(ca.Hist) != len(cb.Hist) {
			return false
		}
		for i := range ca.Hist {
			if ca.Hist[i] != cb.Hist[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// tierEntry reads page's tier entry without materializing its table
// page: 0 for a page never seen.
func tierEntry(f *fenwick, page uint64) int32 {
	if p := f.slots.Peek(page >> slotPageShift); p != nil {
		return p[page&(1<<slotPageShift-1)]
	}
	return 0
}

// TestEngineTierBoundaries compares the default engine with the list
// oracle on streams placed around its ring/tree boundary. A stream
// over at most 32 pages never leaves the ring; one page more sends
// every access through a demotion into the tree; and enough demotions
// fill the slot space, so that a demoting access compacts it — a tree
// hit (whose own slot the compaction remaps) or a cold access (which
// grows the slot space).
func TestEngineTierBoundaries(t *testing.T) {
	cycle := func(pages, refs int) []uint64 {
		seq := make([]uint64, refs)
		for i := range seq {
			seq[i] = uint64(i % pages)
		}
		return seq
	}
	r := rng.New(11)
	random := func(pages uint64, refs int) []uint64 {
		seq := make([]uint64, refs)
		for i := range seq {
			seq[i] = r.Uint64n(pages)
		}
		return seq
	}
	cases := []struct {
		name string
		seq  []uint64
		// tree: the stream must demote pages into the tree; compact:
		// the kind of demoting access that must trigger a compaction.
		tree    bool
		compact string
	}{
		{name: "31 pages", seq: cycle(31, 4000)},
		{name: "32 pages", seq: cycle(32, 4000)},
		{name: "33 pages", seq: cycle(33, 4000), tree: true, compact: "tree hit"},
		{name: "ring never fills", seq: random(8, 4000)},
		{name: "compaction on a cold access", seq: cycle(3000, 3000), tree: true, compact: "cold access"},
		{name: "random 500 pages", seq: random(500, 40000), tree: true, compact: "tree hit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, list := NewStackSim(), newListSim()
			f := s.eng.(*fenwick)
			demoted, compacted := false, map[string]bool{}
			for _, p := range tc.seq {
				next, slots, slot := f.next, len(f.pageOf), tierEntry(f, p)
				s.Ref(pageRef(p))
				list.Ref(pageRef(p))
				demoted = demoted || f.next != next
				// A compaction leaves fewer slots in use, or (when every
				// slot was live) a grown slot space.
				if f.next < next || len(f.pageOf) != slots {
					kind := "cold access"
					if slot > 0 {
						kind = "tree hit"
					}
					compacted[kind] = true
				}
			}
			if !reflect.DeepEqual(s.Curve(), list.Curve()) {
				t.Fatalf("curves differ\ndefault: %+v\nlist:    %+v", s.Curve(), list.Curve())
			}
			if s.DistinctPages() != list.DistinctPages() {
				t.Fatalf("distinct pages: default %d, list %d", s.DistinctPages(), list.DistinctPages())
			}
			if demoted != tc.tree {
				t.Errorf("stream demoted into the tree: %v, want %v", demoted, tc.tree)
			}
			if tc.compact != "" && !compacted[tc.compact] {
				t.Errorf("no compaction on a %s (compactions seen: %v)", tc.compact, compacted)
			}
		})
	}
}

// FuzzStackSimEngines runs the default and list engines over a stream
// of up to 200 pages derived from the input, replayed four times so
// that short inputs still cycle pages through the ring, the tree and
// compaction, and compares their curves and distinct-page counts.
func FuzzStackSimEngines(f *testing.F) {
	for _, n := range []int{31, 32, 33, 200} {
		seed := make([]byte, 4*n)
		for i := range seed {
			seed[i] = byte(i % n)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, list := NewStackSim(), newListSim()
		for rep := 0; rep < 4; rep++ {
			for _, v := range data {
				p := uint64(v) % 200
				s.Ref(pageRef(p))
				list.Ref(pageRef(p))
			}
		}
		if !reflect.DeepEqual(s.Curve(), list.Curve()) {
			t.Fatalf("curves differ\ndefault: %+v\nlist:    %+v", s.Curve(), list.Curve())
		}
		if s.DistinctPages() != list.DistinctPages() {
			t.Fatalf("distinct pages: default %d, list %d", s.DistinctPages(), list.DistinctPages())
		}
	})
}

func TestCurveEmpty(t *testing.T) {
	s := NewStackSim()
	c := s.Curve()
	if c.FaultRate(4) != 0 || c.Faults(4) != 0 || c.MinResidentPages() != 1 {
		t.Errorf("empty curve misbehaves: %+v", c)
	}
}
