package cache

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

// defaultLineShift is log2 of the machine line size, the split every
// production directory is built with.
var defaultLineShift = uint(bits.TrailingZeros64(DefaultLineSize))

// dirPages lists a directory's pages in each's order.
func dirPages[P any](d *pageDir[P]) (idxs []uint64, pages []*P) {
	d.each(func(idx uint64, p *P) {
		idxs = append(idxs, idx)
		pages = append(pages, p)
	})
	return idxs, pages
}

// TestPageDirSpanLayout: the top level splits page indices at one mem
// region span, each span's table grows only to its highest touched
// page, and the dense/sparse boundary, span edges and the top of the
// address space all resolve to stable, distinct pages that each visits
// in ascending order.
func TestPageDirSpanLayout(t *testing.T) {
	shift := spanPageShift(defaultLineShift)
	if got, want := uint64(1)<<(shift+dirPageShift+defaultLineShift), uint64(mem.RegionSpan); got != want {
		t.Fatalf("a span covers %d bytes of lines, want mem.RegionSpan = %d", got, want)
	}
	span := uint64(1) << shift
	d := pageDir[[2]uint64]{spanShift: shift}
	idxs := []uint64{
		0,
		span - 1, span, // the edge between spans 0 and 1
		3*span + 5,
		(dirDenseSpans-1)*span + span - 1, // last dense page
		dirDenseSpans * span,              // first sparse page
		(dirDenseSpans+9)*span + 2,
		^uint64(0) >> dirPageShift, // page of the highest line index
		^uint64(0),
	}
	got := map[uint64]*[2]uint64{}
	for i, idx := range idxs {
		p := d.lookup(idx)
		p[0] = uint64(i + 1)
		got[idx] = p
	}
	for _, idx := range idxs { // revisit after the cache moved on
		if d.lookup(idx) != got[idx] {
			t.Fatalf("page %#x: lookup returned a different page on revisit", idx)
		}
		d.lastIdx, d.last = 0, nil
		if d.find(idx) != got[idx] {
			t.Fatalf("page %#x: find returned a different page", idx)
		}
	}
	if len(d.spans) != dirDenseSpans {
		t.Errorf("top level has %d spans, want %d (the last dense span)", len(d.spans), dirDenseSpans)
	}
	if n := len(d.spans[3]); n != 6 {
		t.Errorf("span 3 table has %d entries, want 6 (highest touched page + 1)", n)
	}
	if n := len(d.spans[2]); n != 0 {
		t.Errorf("untouched span 2 has a %d-entry table", n)
	}
	if n := len(d.sparse); n != 4 {
		t.Errorf("sparse map holds %d pages, want 4", n)
	}
	gotIdxs, pages := dirPages(&d)
	if !reflect.DeepEqual(gotIdxs, idxs) {
		t.Fatalf("each visited %#x, want %#x", gotIdxs, idxs)
	}
	for i, p := range pages {
		if p[0] != uint64(i+1) {
			t.Fatalf("each: page %#x carries the mark of page %d", gotIdxs[i], p[0]-1)
		}
	}
}

// TestSpanPageShiftClamps: absurd line sizes clamp the split to zero
// (one page per span) instead of wrapping the shift.
func TestSpanPageShiftClamps(t *testing.T) {
	if s := spanPageShift(uint(bits.TrailingZeros64(mem.RegionSpan))); s != 0 {
		t.Fatalf("spanPageShift(span-sized lines) = %d, want 0", s)
	}
	if a, b := spanPageShift(defaultLineShift), spanPageShift(defaultLineShift+1); a != b+1 {
		t.Fatalf("doubling the line size moved the split from %d to %d, want one bit less", a, b)
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
	add(dirDenseSpans*lines + 5)
	add(^uint64(0))
	if got := s.distinct(); got != uint64(len(oracle)) {
		t.Fatalf("distinct = %d, oracle %d", got, len(oracle))
	}
}

// serverLayout builds a mem.Memory with a server pair's region layout —
// three allocator regions, eight 64 KB thread stacks and the globals —
// and one block that writes a run into every region as thread 0 and
// reads its first word back as thread 1, so a Sharing fires exactly one
// event per region.
func serverLayout(t testing.TB) (*mem.Memory, *trace.Block) {
	m := mem.New(nil, nil)
	for _, name := range []string{"heap", "info", "state"} {
		m.NewRegion(name, 0)
	}
	for i := 0; i < 8; i++ {
		m.NewRegion(fmt.Sprintf("stack%d", i), 64<<10)
	}
	m.NewRegion("globals", 0)
	b := &trace.Block{}
	for _, r := range m.Regions() {
		base, err := r.Sbrk(16 << 10)
		if err != nil {
			t.Fatal(err)
		}
		b.AppendRunTid(base, mem.WordSize, trace.Write, 64, 0)
		b.Append(trace.Ref{Addr: base, Size: mem.WordSize, Tid: 1})
		b.Append(trace.Ref{Addr: r.Brk() - mem.WordSize, Size: mem.WordSize, Kind: trace.Write, Tid: 2})
	}
	return m, b
}

// TestMultiRegionTablesStaySmall: a block touching every region of a
// server pair's layout must not grow tables with the highest region's
// address. A flat table indexed by line page reached ~8 MB of page
// pointers per table (Group's cold-line set, Sharing's coherence pages
// and its ping lines); the directory needs a few short span tables,
// leaving the coherence pages themselves (68 KB per touched region) as
// the bulk of the allocation.
func TestMultiRegionTablesStaySmall(t *testing.T) {
	m, b := serverLayout(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGroup(Config{Size: 4 << 10}, Config{Size: 16 << 10}, Config{Size: 64 << 10})
	s := NewSharing(SharingConfig{RegionOf: m.RegionIndex})
	g.Block(b)
	s.Block(b)
	runtime.ReadMemStats(&after)
	rep := s.Report()
	if n := len(m.Regions()); rep.False+rep.True != uint64(n) || len(rep.Rows) != n {
		t.Fatalf("want one event and one row per region (%d), got %+v", n, rep)
	}
	for i, row := range rep.Rows {
		if row.Region != i || row.Tid != 1 {
			t.Fatalf("row %d = %+v, want region %d, tid 1", i, row, i)
		}
	}
	if g.DistinctLines() == 0 {
		t.Fatal("group saw no lines")
	}
	const limit = 2 << 20
	pages := uint64(len(m.Regions())) * uint64(reflect.TypeOf(sharePage{}).Size())
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > limit {
		t.Fatalf("one multi-region block allocated %d bytes (coherence pages alone %d), want <= %d",
			alloc, pages, limit)
	}
	t.Logf("allocated %d bytes, %d of them coherence pages", alloc, pages)
}
