package vm

import (
	"math/bits"

	"mallocsim/internal/mem"
)

// Two-tier exact LRU stack: a short recency ring over a Fenwick-tree
// stack-distance engine (Bennett & Kruskal's algorithm, the classic
// fast implementation of stack simulation that the paper's VMSIM
// methodology descends from).
//
// The top ringSize pages of the stack live in a ring, most recently
// used first. A page at distance d < ringSize is found by walking the
// ring and moved to the front by an O(d) shift, with no tree work —
// on the paper's paging workloads that is almost every page switch.
//
// The pages below the ring are held by the tree tier. Each occupies one
// time slot, the slot of its demotion from the ring; a Fenwick (binary
// indexed) tree over the slots counts live slots by prefix sum, so a
// tree page's distance is the ring's length plus the live slots newer
// than its own — n - prefix(slot) — computed in O(log cap). A deeper
// or cold access moves the page to the ring's front, and the ring's
// tail (when the ring is full) is demoted into the next fresh slot in
// O(1): the ring's head steps back onto the tail's cell, so no entry
// moves. When the slot space fills, the live slots are compacted back
// to a dense prefix (amortized O(1) per demotion).
//
// One mem.PageDir of tier entries, indexed by page number, locates a
// page in either tier: 0 unseen, > 0 tree slot+1, < 0 in the ring.

// ringSize is the ring tier's capacity: a power of two, so ring
// positions wrap with a mask. On the paper's paging pairs at the golden
// scale (seed 1, five allocators) 95.6–97.3% of gs page switches and
// all of ptc's land at distance < 32.
const (
	ringSize = 32
	ringMask = ringSize - 1
	inRing   = -1 // tier entry of a page held by the ring
)

// slotPage holds the tier entries of 1<<slotPageShift consecutive pages.
type slotPage [1 << slotPageShift]int32

const slotPageShift = 12

type fenwick struct {
	ring   [ringSize]uint64 // ring[(head+d)&ringMask] is the page at distance d
	head   int
	rlen   int      // pages in the ring; the tree is used once it is full
	tree   []int32  // 1-based Fenwick tree: tree of live-slot flags
	pageOf []uint64 // slot -> page, for compaction
	slots  mem.PageDir[slotPage]
	n      int // live (distinct) pages, both tiers
	next   int // next unused slot; next <= len(pageOf)
}

const fenwickMinCap = 1 << 10

func newFenwick() *fenwick {
	return &fenwick{
		tree:   make([]int32, fenwickMinCap+1),
		pageOf: make([]uint64, fenwickMinCap),
		slots:  mem.NewPageDir[slotPage](slotPageShift + uint(bits.TrailingZeros64(mem.PageSize))),
	}
}

// entry returns page's tier entry, materializing its table page on
// first touch. The pointer stays valid across compaction, which
// rewrites entries but never moves table pages.
func (f *fenwick) entry(page uint64) *int32 {
	return &f.slots.Lookup(page >> slotPageShift)[page&(1<<slotPageShift-1)]
}

func (f *fenwick) len() int { return f.n }

// access returns the stack distance of page (or -1 if new) and promotes
// it to most recently used.
func (f *fenwick) access(page uint64) int {
	// One lookup for the read-modify-write: the entry pointer outlives
	// a compaction below.
	ref := f.entry(page)
	if *ref == inRing {
		// Carry the page down the ring from the front: each cell takes
		// its predecessor until the page's own cell is reached.
		carry := page
		for d := 0; ; d++ {
			i := (f.head + d) & ringMask
			cur := f.ring[i]
			f.ring[i] = carry
			if cur == page {
				return d
			}
			carry = cur
		}
	}
	demote := f.rlen == ringSize
	if demote && f.next == len(f.pageOf) {
		// Compact before touching any state for this access: compaction
		// must see a consistent tree/slots pair, so it cannot run
		// between clearing a page's old slot and claiming a new one.
		f.compact()
	}
	dist := -1
	if s := *ref; s > 0 {
		// Live slots strictly more recent than this page's slot, plus
		// the whole ring: n counts both tiers.
		dist = f.n - f.prefix(int(s))
		f.add(int(s), -1)
	} else {
		f.n++
	}
	f.head = (f.head - 1) & ringMask
	if demote {
		// The new head cell holds the ring's tail: it moves to the
		// tree's newest slot.
		tail := f.ring[f.head]
		slot := f.next
		f.next++
		f.add(slot+1, 1)
		f.pageOf[slot] = tail
		*f.entry(tail) = int32(slot + 1)
	} else {
		f.rlen++
	}
	f.ring[f.head] = page
	*ref = inRing
	return dist
}

// prefix returns the number of live slots in [0, i) (1-based tree
// index i).
func (f *fenwick) prefix(i int) int {
	var sum int32
	for ; i > 0; i -= i & -i {
		sum += f.tree[i]
	}
	return int(sum)
}

// add adds delta at 1-based tree index i.
func (f *fenwick) add(i int, delta int32) {
	for ; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// compact remaps the live tree slots to a dense prefix [0, live),
// preserving their order, and rebuilds the tree — growing the slot
// space when the live set occupies more than half of it. A slot is
// live when its page's table entry still names it: pages that moved to
// a later slot or into the ring are dropped alike.
func (f *fenwick) compact() {
	live := f.n - f.rlen
	cap := len(f.pageOf)
	for cap < 2*live || cap < fenwickMinCap {
		cap *= 2
	}
	// Reuse the arrays when the capacity is unchanged (the steady state:
	// a working set cycling through half the slot space): the forward
	// copy is safe in place because the write index never overtakes the
	// read index.
	pageOf := f.pageOf
	if cap != len(f.pageOf) {
		pageOf = make([]uint64, cap)
	}
	j := 0
	for slot := 0; slot < f.next; slot++ {
		// Every page that held a slot has its table page: Peek finds it.
		page := f.pageOf[slot]
		e := &f.slots.Peek(page >> slotPageShift)[page&(1<<slotPageShift-1)]
		if *e != int32(slot+1) {
			continue
		}
		pageOf[j] = page
		*e = int32(j + 1)
		j++
	}
	f.pageOf = pageOf
	f.next = j
	if cap+1 != len(f.tree) {
		f.tree = make([]int32, cap+1)
	}
	// Linear rebuild: tree[i] counts the live slots among the 1-based
	// indices (i-lowbit(i), i], and the live slots are exactly 1..j.
	for i := 1; i < len(f.tree); i++ {
		f.tree[i] = int32(min(i, j) - min(i-i&-i, j))
	}
}
