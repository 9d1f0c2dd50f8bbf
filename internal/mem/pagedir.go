package mem

import "slices"

// PageDir is a sparse directory of lazily allocated pages of type P,
// keyed by page index: the simulator's one sparse page table. It backs
// Memory's byte pages, vm's page-to-slot table and the cache
// simulators' line sets and coherence state.
//
// Its top level has one entry per region span of page indices, and each
// span's table grows only to the highest page touched in it; spans at or
// beyond pageDirDenseSpans fall back to a map. Splitting at RegionSpan
// follows the region layout, which places region i at about
// (i+1)·RegionSpan, so a run costs one short table per touched region,
// where a flat table indexed by page would grow with the highest
// region's index.
//
// The zero value is an empty directory with one page per span: the
// layout for small dense keys such as region indices.
type PageDir[P any] struct {
	spanShift uint   // log2 of the page indices one span covers
	spans     [][]*P // spans[top][off] is page (top<<spanShift)+off
	sparse    map[uint64]*P
	n         int // materialized pages
}

// pageDirDenseSpans is the number of directly indexed spans: the first
// 4 TB of addresses when pages are address-keyed.
const pageDirDenseSpans = 1 << 10

// NewPageDir returns an empty directory whose pages each cover
// 1<<pageShift bytes of address space: page idx holds the addresses
// [idx<<pageShift, (idx+1)<<pageShift). Pages of a region span or more
// get one span each.
func NewPageDir[P any](pageShift uint) PageDir[P] {
	return PageDir[P]{spanShift: uint(max(regionShift-int(pageShift), 0))}
}

// split returns the span of page idx and its offset in the span.
// Masking the shift spares the compiler its out-of-range check.
func (d *PageDir[P]) split(idx uint64) (top, off uint64) {
	s := d.spanShift & 63
	top = idx >> s
	return top, idx - top<<s
}

// Lookup returns the page with index idx, materializing it on first
// touch.
func (d *PageDir[P]) Lookup(idx uint64) *P {
	if top, off := d.split(idx); top < uint64(len(d.spans)) {
		if t := d.spans[top]; off < uint64(len(t)) && t[off] != nil {
			return t[off]
		}
	}
	return d.materialize(idx)
}

// Peek returns the page with index idx, or nil if it was never
// materialized. It allocates nothing.
func (d *PageDir[P]) Peek(idx uint64) *P {
	top, off := d.split(idx)
	if top >= pageDirDenseSpans {
		return d.sparse[idx]
	}
	if top < uint64(len(d.spans)) {
		if t := d.spans[top]; off < uint64(len(t)) {
			return t[off]
		}
	}
	return nil
}

// materialize is Lookup's cold path: the sparse map beyond the dense
// spans, and page allocation (growing the tables) on first touch.
func (d *PageDir[P]) materialize(idx uint64) *P {
	if p := d.Peek(idx); p != nil {
		return p
	}
	p := new(P)
	d.n++
	top, off := d.split(idx)
	if top >= pageDirDenseSpans {
		if d.sparse == nil {
			d.sparse = make(map[uint64]*P)
		}
		d.sparse[idx] = p
		return p
	}
	if top >= uint64(len(d.spans)) {
		d.spans = append(d.spans, make([][]*P, top+1-uint64(len(d.spans)))...)
	}
	if t := d.spans[top]; off >= uint64(len(t)) {
		d.spans[top] = append(t, make([]*P, off+1-uint64(len(t)))...)
	}
	d.spans[top][off] = p
	return p
}

// Len returns the number of materialized pages.
func (d *PageDir[P]) Len() int { return d.n }

// Each calls fn on every materialized page in ascending index order.
// It is O(pages), for result assembly.
func (d *PageDir[P]) Each(fn func(idx uint64, p *P)) {
	for top, t := range d.spans {
		for off, p := range t {
			if p != nil {
				fn(uint64(top)<<d.spanShift|uint64(off), p)
			}
		}
	}
	keys := make([]uint64, 0, len(d.sparse))
	for idx := range d.sparse {
		keys = append(keys, idx)
	}
	slices.Sort(keys)
	for _, idx := range keys {
		fn(idx, d.sparse[idx])
	}
}
