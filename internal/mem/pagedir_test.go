package mem

import (
	"reflect"
	"testing"
)

// dirPages lists a directory's pages in Each's order.
func dirPages[P any](d *PageDir[P]) (idxs []uint64, pages []*P) {
	d.Each(func(idx uint64, p *P) {
		idxs = append(idxs, idx)
		pages = append(pages, p)
	})
	return idxs, pages
}

// TestPageDirSpanLayout: the top level splits page indices at one
// region span, each span's table grows only to its highest touched
// page, and the dense/sparse boundary, span edges and the top of the
// address space all resolve to stable, distinct pages that Each visits
// in ascending order.
func TestPageDirSpanLayout(t *testing.T) {
	const pageShift = 17 // 4096 lines of 32 bytes per page
	d := NewPageDir[[2]uint64](pageShift)
	if got := uint64(1) << (d.spanShift + pageShift); got != RegionSpan {
		t.Fatalf("a span covers %d bytes, want RegionSpan = %d", got, uint64(RegionSpan))
	}
	span := uint64(1) << d.spanShift
	idxs := []uint64{
		0,
		span - 1, span, // the edge between spans 0 and 1
		3*span + 5,
		(pageDirDenseSpans-1)*span + span - 1, // last dense page
		pageDirDenseSpans * span,              // first sparse page
		(pageDirDenseSpans+9)*span + 2,
		^uint64(0) >> pageShift, // page of the highest address
		^uint64(0),
	}
	got := map[uint64]*[2]uint64{}
	for i, idx := range idxs {
		if d.Peek(idx) != nil {
			t.Fatalf("page %#x: Peek found a page before Lookup", idx)
		}
		p := d.Lookup(idx)
		p[0] = uint64(i + 1)
		got[idx] = p
		if d.Len() != i+1 {
			t.Fatalf("after %d lookups Len = %d", i+1, d.Len())
		}
	}
	for _, idx := range idxs {
		if d.Lookup(idx) != got[idx] || d.Peek(idx) != got[idx] {
			t.Fatalf("page %#x: a revisit returned a different page", idx)
		}
	}
	if d.Len() != len(idxs) {
		t.Errorf("Len = %d after revisits, want %d", d.Len(), len(idxs))
	}
	if len(d.spans) != pageDirDenseSpans {
		t.Errorf("top level has %d spans, want %d (the last dense span)", len(d.spans), pageDirDenseSpans)
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
		t.Fatalf("Each visited %#x, want %#x", gotIdxs, idxs)
	}
	for i, p := range pages {
		if p[0] != uint64(i+1) {
			t.Fatalf("Each: page %#x carries the mark of page %d", gotIdxs[i], p[0]-1)
		}
	}
}

// TestPageDirPeekAllocatesNothing: Peek of pages never touched — in a
// table that exists, past a table's end, in an untouched span and in
// sparse territory — returns nil, allocates nothing and materializes no
// page; Lookup of a materialized page allocates nothing either (the
// dynamic half of hotalloc's contract for both).
func TestPageDirPeekAllocatesNothing(t *testing.T) {
	d := NewPageDir[[PageSize]byte](pageShift)
	base := PageOf(RegionSpan)
	hit := d.Lookup(base + 3)
	misses := []uint64{base, base + 2, base + 4, base + 1<<30, PageOf(^uint64(0))}
	for _, idx := range misses {
		if p := d.Peek(idx); p != nil {
			t.Fatalf("Peek(%#x) = %p, want nil", idx, p)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, idx := range misses {
			d.Peek(idx)
		}
		if d.Lookup(base+3) != hit {
			t.Fatal("Lookup moved a materialized page")
		}
	}); avg != 0 {
		t.Errorf("Peek and a warm Lookup allocate %.1f allocs/op, want 0", avg)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d after Peeks, want 1", d.Len())
	}
	var zero PageDir[int]
	if zero.Peek(0) != nil || zero.Len() != 0 {
		t.Error("the zero directory is not empty")
	}
}

// TestPageDirSpanShiftClamps: pages of a region span or more clamp the
// split to zero (one page per span) instead of wrapping the shift, and
// doubling the page size moves the split by one bit.
func TestPageDirSpanShiftClamps(t *testing.T) {
	for _, shift := range []uint{regionShift, regionShift + 5, 64} {
		if d := NewPageDir[int](shift); d.spanShift != 0 {
			t.Fatalf("NewPageDir(%d).spanShift = %d, want 0", shift, d.spanShift)
		}
	}
	if a, b := NewPageDir[int](17).spanShift, NewPageDir[int](18).spanShift; a != b+1 {
		t.Fatalf("doubling the page size moved the split from %d to %d, want one bit less", a, b)
	}
}
