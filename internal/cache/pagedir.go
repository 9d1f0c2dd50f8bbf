package cache

import (
	"math/bits"
	"slices"

	"mallocsim/internal/mem"
)

// pageDir is the two-level directory of lazily allocated pages behind
// lineSet and Sharing. Its top level has one entry per span of page
// indices, and each span's table grows only to the highest page
// touched in it; spans at or beyond dirDenseSpans fall back to a map.
// Line-keyed directories split at mem.RegionSpan (see spanPageShift),
// so mem's layout, which places region i at about (i+1)·RegionSpan,
// costs one short table per touched region, where a flat table indexed
// by page would grow with the highest region's index.
type pageDir[P any] struct {
	spanShift uint   // log2 of the page indices one span covers
	spans     [][]*P // spans[idx>>spanShift][idx&(1<<spanShift-1)]
	sparse    map[uint64]*P
	// Single-entry page cache: reference streams are strongly local,
	// so consecutive lookups overwhelmingly hit one page.
	lastIdx uint64
	last    *P
}

const (
	dirPageShift  = 12      // 4096 lines per page
	dirDenseSpans = 1 << 10 // directly indexed spans (4 TB of addresses when line-keyed)
)

// spanPageShift returns log2 of the pages of 1<<lineShift-byte lines
// one mem region span holds.
func spanPageShift(lineShift uint) uint {
	return uint(max(bits.TrailingZeros64(mem.RegionSpan)-int(lineShift)-dirPageShift, 0))
}

// lookup returns the page with index idx, materializing it on first
// touch. The cache check stays small enough to inline.
func (d *pageDir[P]) lookup(idx uint64) *P {
	if idx == d.lastIdx && d.last != nil {
		return d.last
	}
	return d.find(idx)
}

// find is lookup's cache miss: the two-level index, then materialize
// for a page not yet allocated.
func (d *pageDir[P]) find(idx uint64) *P {
	var p *P
	if top, off := idx>>d.spanShift, idx&(1<<d.spanShift-1); top < uint64(len(d.spans)) {
		if t := d.spans[top]; off < uint64(len(t)) {
			p = t[off]
		}
	}
	if p == nil {
		p = d.materialize(idx)
	}
	d.lastIdx, d.last = idx, p
	return p
}

// materialize is find's cold path: the sparse map beyond the dense
// spans, and page allocation (growing the tables) on first touch.
func (d *pageDir[P]) materialize(idx uint64) *P {
	top, off := idx>>d.spanShift, idx&(1<<d.spanShift-1)
	if top >= dirDenseSpans {
		p := d.sparse[idx]
		if p == nil {
			if d.sparse == nil {
				d.sparse = make(map[uint64]*P)
			}
			p = new(P)
			d.sparse[idx] = p
		}
		return p
	}
	if top >= uint64(len(d.spans)) {
		d.spans = append(d.spans, make([][]*P, top+1-uint64(len(d.spans)))...)
	}
	if t := d.spans[top]; off >= uint64(len(t)) {
		d.spans[top] = append(t, make([]*P, off+1-uint64(len(t)))...)
	}
	p := new(P)
	d.spans[top][off] = p
	return p
}

// each calls fn on every page in ascending index order. O(pages),
// for result assembly only.
func (d *pageDir[P]) each(fn func(idx uint64, p *P)) {
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
