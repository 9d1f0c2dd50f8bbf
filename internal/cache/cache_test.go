package cache

import (
	"math/bits"
	"testing"
	"testing/quick"

	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

// defaultLineShift is log2 of the machine line size, the split every
// production directory is built with.
var defaultLineShift = uint(bits.TrailingZeros64(DefaultLineSize))

// denseSpans is the number of region spans mem.PageDir indexes
// directly; lines past them live in its sparse map.
const denseSpans = 1 << 10

func ref(addr uint64) trace.Ref { return trace.Ref{Addr: addr, Size: 4, Kind: trace.Read} }

func TestConfigDefaults(t *testing.T) {
	c := New(Config{Size: 16 << 10})
	if c.Config().LineSize != DefaultLineSize || c.Config().Assoc != 1 {
		t.Errorf("defaults: %+v", c.Config())
	}
}

func TestConfigString(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Size: 16 << 10}, "16K/32B direct-mapped"},
		{Config{Size: 1 << 20, Assoc: 4}, "1M/32B 4-way"},
		{Config{Size: 512, LineSize: 16, Assoc: 2}, "512/16B 2-way"},
	}
	for _, c := range cases {
		if got := c.cfg.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 1000},                         // not multiple of line
		{Size: 96, LineSize: 32},             // 3 sets: not a power of two
		{Size: 64, LineSize: 48},             // line not power of two
		{Size: 32, LineSize: 32, Assoc: 3},   // lines not divisible
		{Size: 128, LineSize: 32, Assoc: -1}, // bad assoc
		{Size: 64, LineSize: 2},              // sub-word line: packed tags alias invalidTag
		{Size: 64, LineSize: 1},              // sub-word line
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 128-byte cache, 32-byte lines: 4 sets. Addresses 0 and 128 map to
	// set 0 and evict each other; address 32 maps to set 1.
	c := New(Config{Size: 128})
	c.Ref(ref(0))   // miss
	c.Ref(ref(0))   // hit
	c.Ref(ref(128)) // miss, evicts 0
	c.Ref(ref(0))   // miss again
	c.Ref(ref(32))  // miss, different set
	c.Ref(ref(32))  // hit
	if c.Misses() != 4 || c.Accesses() != 6 {
		t.Errorf("misses=%d accesses=%d", c.Misses(), c.Accesses())
	}
}

func TestAssocLRU(t *testing.T) {
	// One set of 2 ways (64-byte cache): lines 0, 2, 4 all map to set 0.
	c := New(Config{Size: 64, Assoc: 2})
	c.Ref(ref(0))   // miss {0}
	c.Ref(ref(64))  // miss {64,0}
	c.Ref(ref(0))   // hit  {0,64}
	c.Ref(ref(128)) // miss, evicts 64 -> {128,0}
	c.Ref(ref(0))   // hit
	c.Ref(ref(64))  // miss (was evicted)
	if c.Misses() != 4 {
		t.Errorf("misses=%d, want 4", c.Misses())
	}
}

func TestAssocOneEqualsDirectMapped(t *testing.T) {
	a := New(Config{Size: 4096, Assoc: 1})
	b := New(Config{Size: 4096, Assoc: 1})
	_ = b
	dm := New(Config{Size: 4096})
	seed := uint64(12345)
	for i := 0; i < 20000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		addr := (seed >> 16) % (64 << 10)
		a.Ref(ref(addr))
		dm.Ref(ref(addr))
	}
	if a.Misses() != dm.Misses() {
		t.Errorf("assoc=1 misses %d != direct-mapped %d", a.Misses(), dm.Misses())
	}
}

func TestLineSpanningRef(t *testing.T) {
	c := New(Config{Size: 1024})
	c.Ref(trace.Ref{Addr: 30, Size: 8}) // spans lines 0 and 1
	if c.Accesses() != 2 || c.Misses() != 2 {
		t.Errorf("accesses=%d misses=%d, want 2/2", c.Accesses(), c.Misses())
	}
	c.Ref(trace.Ref{Addr: 0, Size: 0}) // zero size counts as 1 byte
	if c.Accesses() != 3 {
		t.Errorf("zero-size ref not counted")
	}
}

func TestFullyAssocOnlyColdMisses(t *testing.T) {
	// Working set of 16 lines in a 16-line fully-associative cache:
	// after the cold pass, everything hits forever.
	c := New(Config{Size: 512, Assoc: 16})
	for pass := 0; pass < 10; pass++ {
		for i := uint64(0); i < 16; i++ {
			c.Ref(ref(i * 32))
		}
	}
	if c.Misses() != 16 {
		t.Errorf("misses=%d, want 16 cold only", c.Misses())
	}
}

func TestReset(t *testing.T) {
	c := New(Config{Size: 128})
	c.Ref(ref(0))
	c.Reset()
	if c.Misses() != 0 || c.Accesses() != 0 || c.MissRate() != 0 {
		t.Error("reset incomplete")
	}
	c.Ref(ref(0))
	if c.Misses() != 1 {
		t.Error("reset must clear contents (cold again)")
	}
}

func TestGroupColdAndResults(t *testing.T) {
	// Lines 0, 4 and 64: distinct sets in the 4 KB cache (128 sets), but
	// lines 0 and 64 collide in the 128-byte cache (4 sets... 64 % 4 == 0).
	g := NewGroup(Config{Size: 128}, Config{Size: 4096})
	for i := 0; i < 3; i++ {
		g.Ref(ref(0))
		g.Ref(ref(128))
		g.Ref(ref(2048))
	}
	if g.DistinctLines() != 3 {
		t.Errorf("distinct lines = %d", g.DistinctLines())
	}
	rs := g.Results()
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	small, big := rs[0], rs[1]
	if small.ColdLines != 3 || big.ColdLines != 3 {
		t.Error("cold lines wrong")
	}
	// 4 KB cache holds all three lines: cold misses only.
	if big.Misses != 3 || big.ConflictMisses() != 0 {
		t.Errorf("big cache misses=%d conflict=%d", big.Misses, big.ConflictMisses())
	}
	if small.Misses <= big.Misses {
		t.Error("small cache should conflict-miss more")
	}
	if small.MissRate() <= big.MissRate() {
		t.Error("miss rates out of order")
	}
}

func TestGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty group must panic")
		}
	}()
	NewGroup()
}

func TestGroupMixedLineSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mixed line sizes must panic")
		}
	}()
	NewGroup(Config{Size: 128, LineSize: 32}, Config{Size: 128, LineSize: 16})
}

// TestValidateGroup: the error-returning form of NewGroup's rules
// rejects what NewGroup panics on and accepts a default line size next
// to an explicit one of the same width.
func TestValidateGroup(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfgs []Config
		ok   bool
	}{
		{"empty", nil, false},
		{"invalid-member", []Config{{Size: 128}, {Size: 100}}, false},
		{"mixed-line-sizes", []Config{{Size: 128, LineSize: 32}, {Size: 128, LineSize: 16}}, false},
		{"default-and-explicit", []Config{{Size: 128}, {Size: 256, LineSize: DefaultLineSize, Assoc: 2}}, true},
	} {
		err := ValidateGroup(tc.cfgs...)
		if (err == nil) != tc.ok {
			t.Errorf("%s: ValidateGroup = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// Property: for any reference stream, a larger cache of equal geometry
// never misses more than a smaller one... (not true in general for
// direct-mapped caches! Belady anomalies exist for conflict misses).
// The properties that DO hold and are checked here:
//   - misses never exceed accesses,
//   - misses are at least the distinct-line count (cold) for any cache,
//   - a fully-associative LRU cache exhibits the inclusion property:
//     bigger is never worse.
func TestQuickCacheInvariants(t *testing.T) {
	prop := func(raw []uint16) bool {
		small := New(Config{Size: 256, Assoc: 8}) // fully assoc: 8 lines
		big := New(Config{Size: 1024, Assoc: 32}) // fully assoc: 32 lines
		dm := New(Config{Size: 512})              // direct-mapped
		seen := map[uint64]bool{}
		for _, v := range raw {
			addr := uint64(v) * 8
			small.Ref(ref(addr))
			big.Ref(ref(addr))
			dm.Ref(ref(addr))
			seen[addr/32] = true
		}
		cold := uint64(len(seen))
		if dm.Misses() > dm.Accesses() || dm.Misses() < cold {
			return false
		}
		if big.Misses() > small.Misses() {
			return false // LRU inclusion property violated
		}
		return big.Misses() >= cold
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWrappingRefTerminates is the regression test for the span-wrap
// bug: a reference whose Addr+Size-1 overflows uint64 made last < first
// and the `line == last` termination never fire. The span is clamped to
// the top of the address space instead.
func TestWrappingRefTerminates(t *testing.T) {
	top := ^uint64(0)
	cases := []trace.Ref{
		{Addr: top, Size: 4},             // starts on the last byte
		{Addr: top - 3, Size: 8},         // crosses the top boundary
		{Addr: top - 40, Size: 64},       // spans into the wrap
		{Addr: top - 31, Size: 0},        // zero size at the edge
		{Addr: top &^ 31, Size: 1 << 31}, // huge span from the last line
	}
	for _, r := range cases {
		c := New(Config{Size: 128})
		c.Ref(r) // must terminate
		wantLines := (top >> 5) - ((r.Addr) >> 5) + 1
		if c.Accesses() != wantLines {
			t.Errorf("ref %+v: accesses=%d, want %d (clamped span)", r, c.Accesses(), wantLines)
		}

		g := NewGroup(Config{Size: 128}, Config{Size: 4096})
		g.Ref(r)
		if g.DistinctLines() != wantLines {
			t.Errorf("group ref %+v: distinct=%d, want %d", r, g.DistinctLines(), wantLines)
		}

		v := NewVictim(Config{Size: 128}, 2)
		v.Ref(r)
		if v.Accesses() != wantLines {
			t.Errorf("victim ref %+v: accesses=%d, want %d", r, v.Accesses(), wantLines)
		}

		h := NewHierarchy(Config{Size: 128}, Config{Size: 4096})
		h.Ref(r)
		if h.Accesses() != wantLines {
			t.Errorf("hierarchy ref %+v: accesses=%d, want %d", r, h.Accesses(), wantLines)
		}
	}
}

// TestSingleLineFastPath checks the common-case shortcut against the
// span loop: results must be identical for line-interior references.
func TestSingleLineFastPath(t *testing.T) {
	c := New(Config{Size: 1024})
	c.Ref(trace.Ref{Addr: 4, Size: 4})  // fast path
	c.Ref(trace.Ref{Addr: 12, Size: 4}) // same line: hit via fast path
	c.Ref(trace.Ref{Addr: 0, Size: 32}) // exactly one full line
	if c.Accesses() != 3 || c.Misses() != 1 {
		t.Errorf("accesses=%d misses=%d, want 3/1", c.Accesses(), c.Misses())
	}
	// Write on the fast path must still set the dirty bit.
	c.Ref(trace.Ref{Addr: 4, Size: 4, Kind: trace.Write})
	c.Ref(trace.Ref{Addr: 1024 + 4, Size: 4}) // conflict: evicts dirty line
	if c.Writebacks() != 1 {
		t.Errorf("writebacks=%d, want 1", c.Writebacks())
	}
}

// TestLineSetPagedBitset exercises the distinct-line bitset across page
// boundaries and re-visits, comparing against a map oracle.
func TestLineSetPagedBitset(t *testing.T) {
	s := newLineSet(defaultLineShift)
	oracle := map[uint64]bool{}
	seed := uint64(99)
	add := func(line uint64) {
		s.add(line)
		oracle[line] = true
	}
	// Dense run crossing several 4096-line pages, then sparse far jumps
	// (distinct lineSet pages), then revisits.
	for i := uint64(0); i < 3*4096+17; i++ {
		add(i)
	}
	for i := 0; i < 5000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		add(seed >> 24)
	}
	for i := uint64(0); i < 4096; i += 7 {
		add(i) // all revisits
	}
	if got := s.distinct(); got != uint64(len(oracle)) {
		t.Errorf("lineSet count=%d, oracle=%d", got, len(oracle))
	}
}

// TestLineSetMultiSpan: distinct over a set spread across region spans
// and the sparse top level agrees with a map oracle, fed two
// interleaved line streams that repeat one line per span.
func TestLineSetMultiSpan(t *testing.T) {
	lines := uint64(mem.RegionSpan) >> defaultLineShift
	s := newLineSet(defaultLineShift)
	if s.distinct() != 0 {
		t.Fatal("new set not empty")
	}
	oracle := map[uint64]bool{}
	add := func(line uint64) {
		s.add(line)
		oracle[line] = true
	}
	for r := uint64(1); r <= 12; r++ {
		base := r*lines + r*37
		for i := uint64(0); i < 300; i += 3 {
			add(base + i)
			add(base + i + 1)
		}
		add(base) // repeats a line of the first stream
	}
	add(lines - 1)
	add(lines)
	add(denseSpans*lines + 5)
	add(^uint64(0))
	if got := s.distinct(); got != uint64(len(oracle)) {
		t.Fatalf("distinct = %d, oracle %d", got, len(oracle))
	}
}
