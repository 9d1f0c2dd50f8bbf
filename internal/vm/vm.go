// Package vm implements LRU stack-distance simulation of page reference
// behaviour, reproducing the paper's VMSIM methodology ("a fast
// implementation of a stack simulation algorithm"; 4 KB pages).
//
// Stack simulation exploits the inclusion property of LRU: a single pass
// over the reference trace yields the page-fault count for every
// possible memory size at once. For each reference we compute the
// page's stack distance — the number of distinct pages referenced more
// recently — and histogram it; the fault count for a memory of M pages
// is then the number of references at distance >= M plus the cold
// (first-touch) references.
//
// The simulation is exact, over mem.PageSize pages. Its engine is a
// two-tier LRU stack: a 32-page most-recently-used ring answers a page
// at distance d < 32 in O(d), and a Fenwick tree after Bennett &
// Kruskal holds the deeper pages (O(log n) over flat arrays). A simple
// move-to-front list (O(depth) per reference) is the oracle in tests.
// Both produce identical distances.
package vm

import (
	"math/bits"

	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

// Curve is the outcome of a stack simulation: everything needed to
// compute fault counts for any memory size.
type Curve struct {
	PageSize uint64
	// Cold counts first-touch references (infinite stack distance).
	Cold uint64
	// Hist[d] counts references with stack distance d (0 = re-reference
	// of the most recently used page).
	Hist []uint64
	// Refs is the total page references simulated.
	Refs uint64
}

// Faults returns the number of page faults for a memory of `pages`
// physical pages under LRU replacement. A reference at stack distance d
// hits iff d < pages; cold references always fault.
func (c *Curve) Faults(pages uint64) uint64 {
	faults := c.Cold
	for d := pages; d < uint64(len(c.Hist)); d++ {
		faults += c.Hist[d]
	}
	return faults
}

// FaultRate returns faults per reference for the given memory size, the
// y-axis of the paper's Figures 2 and 3.
func (c *Curve) FaultRate(pages uint64) float64 {
	if c.Refs == 0 {
		return 0
	}
	return float64(c.Faults(pages)) / float64(c.Refs)
}

// DistinctPages returns the total number of distinct pages referenced
// (equal to the cold-reference count).
func (c *Curve) DistinctPages() uint64 { return c.Cold }

// MinResidentPages returns the smallest memory size, in pages, at which
// only cold faults remain (the program's maximum LRU stack depth + 1).
func (c *Curve) MinResidentPages() uint64 {
	for d := len(c.Hist) - 1; d >= 0; d-- {
		if c.Hist[d] != 0 {
			return uint64(d) + 1
		}
	}
	return 1
}

// SweepPoint is one sampled point of the fault curve.
type SweepPoint struct {
	Pages     uint64
	Faults    uint64
	FaultRate float64
}

// Sweep samples the fault curve at power-of-two memory sizes, from one
// page up to the first size at which only cold faults remain — the
// x-axis of the paper's Figures 2 and 3 and the curve embedded in run
// reports. The suffix sums of the distance histogram are accumulated in
// a single reverse pass, so the sweep is O(len(Hist)) total rather than
// O(len(Hist)) per point.
func (c *Curve) Sweep() []SweepPoint {
	max := c.MinResidentPages()
	var sizes []uint64
	for pages := uint64(1); ; pages *= 2 {
		sizes = append(sizes, pages)
		if pages >= max {
			break
		}
	}
	// faults[i] = Faults(sizes[i]): walk the histogram once from the
	// deepest distance down, snapshotting the running suffix sum as each
	// sampled size's lower bound is crossed.
	faults := make([]uint64, len(sizes))
	var suffix uint64
	i := len(sizes) - 1
	for d := len(c.Hist) - 1; d >= 0 && i >= 0; d-- {
		for i >= 0 && uint64(d) < sizes[i] {
			faults[i] = c.Cold + suffix
			i--
		}
		suffix += c.Hist[d]
	}
	for ; i >= 0; i-- {
		faults[i] = c.Cold + suffix
	}
	out := make([]SweepPoint, len(sizes))
	for j, pages := range sizes {
		var rate float64
		if c.Refs > 0 {
			rate = float64(faults[j]) / float64(c.Refs)
		}
		out[j] = SweepPoint{Pages: pages, Faults: faults[j], FaultRate: rate}
	}
	return out
}

// engine is an LRU stack maintaining recency ranks.
type engine interface {
	// access returns the 0-based stack distance of page, or -1 when the
	// page has never been seen, and promotes the page to most recently
	// used.
	access(page uint64) int
	// len returns the number of distinct pages tracked.
	len() int
}

// StackSim runs a stack simulation over a reference stream. It
// implements trace.Sink; references spanning page boundaries count once
// per page touched.
type StackSim struct {
	eng   engine
	curve Curve
	// lastPage short-circuits consecutive references to one page, a
	// large constant-factor win on real traces (spatial locality) that
	// does not change the histogram: distance-0 re-references are hits
	// at every memory size >= 1.
	lastPage uint64
	havePage bool
}

// NewStackSim creates an exact stack simulator over the two-tier
// engine.
func NewStackSim() *StackSim { return newStackSim(newFenwick()) }

func newStackSim(eng engine) *StackSim {
	return &StackSim{eng: eng, curve: Curve{PageSize: mem.PageSize}}
}

// Ref implements trace.Sink.
func (s *StackSim) Ref(r trace.Ref) {
	size := uint64(r.Size)
	if size == 0 {
		size = 1
	}
	first := mem.PageOf(r.Addr)
	end := r.Addr + size - 1
	if end < r.Addr {
		// Clamp spans that wrap the 64-bit address space so the
		// page-walk below terminates.
		end = ^uint64(0)
	}
	last := mem.PageOf(end)
	if first == last {
		s.accessPage(first)
		return
	}
	for p := first; ; p++ {
		s.accessPage(p)
		if p == last {
			break
		}
	}
}

// Block implements trace.BlockSink: the page walk reads the address
// column directly and touches sizes only to split page-spanning
// references (kinds are irrelevant to fault behaviour).
func (s *StackSim) Block(b *trace.Block) {
	// Same-page repeats — by far the hot case in a word-granular stream
	// — accumulate in locals: a repeat is distance 0, so a run of n
	// repeats folds into Refs += n and Hist[0] += n, which commute with
	// everything the engine does at the next page switch.
	var refs, repeats uint64
	runs := b.Runs
	for i, addr := range b.Addrs {
		size := uint64(b.Sizes[i])
		if runs != nil && runs[i] != 1 {
			n := uint64(runs[i])
			if n == 0 {
				continue
			}
			// A size dividing the power-of-two page size is a power of
			// two no larger than it, so masks and shifts replace the
			// divisions of the aligned contract.
			if size == 0 || size&(size-1) != 0 || size > mem.PageSize ||
				addr&(size-1) != 0 || size*n-1 > ^uint64(0)-addr {
				// Run row outside the aligned contract: expand it
				// reference by reference through the exact path.
				if repeats != 0 {
					s.foldRepeats(repeats)
					repeats = 0
				}
				r := b.At(i)
				for ; n > 0; n-- {
					s.Ref(r)
					r.Addr += uint64(r.Size)
				}
				continue
			}
			// Aligned run: no element spans a page, so the row walks
			// pages first.. with k elements in the current page (bounded
			// by the page boundary, then PageSize/size per full page).
			// The first element of each new page goes through the
			// engine; the k-1 others are distance-0 repeats, folded like
			// the cross-row repeat accumulator below — with the same
			// flush-before-page-switch discipline, so the histogram is
			// byte-identical to element-by-element simulation.
			sizeShift := uint(bits.TrailingZeros64(size))
			k := (mem.PageSize - mem.PageOffset(addr)) >> sizeShift
			if k > n {
				k = n
			}
			p := mem.PageOf(addr)
			for {
				if s.havePage && p == s.lastPage {
					repeats += k
					refs += k
				} else {
					if repeats != 0 {
						s.foldRepeats(repeats)
						repeats = 0
					}
					s.accessPage(p)
					repeats += k - 1
					refs += k - 1
				}
				n -= k
				if n == 0 {
					break
				}
				p++
				if k = mem.PageSize >> sizeShift; k > n {
					k = n
				}
			}
			continue
		}
		if size == 0 {
			size = 1
		}
		first := mem.PageOf(addr)
		end := addr + size - 1
		if end < addr {
			end = ^uint64(0)
		}
		last := mem.PageOf(end)
		if first == last && s.havePage && first == s.lastPage {
			refs++
			repeats++
			continue
		}
		if repeats != 0 {
			s.foldRepeats(repeats)
			repeats = 0
		}
		for p := first; ; p++ {
			s.accessPage(p)
			if p == last {
				break
			}
		}
	}
	if repeats != 0 {
		s.foldRepeats(repeats)
	}
	s.curve.Refs += refs
}

// foldRepeats applies n accumulated same-page re-references, each a
// distance-0 event (Refs are added separately by Block).
func (s *StackSim) foldRepeats(n uint64) {
	if len(s.curve.Hist) == 0 {
		s.curve.Hist = append(s.curve.Hist, 0)
	}
	s.curve.Hist[0] += n
}

func (s *StackSim) accessPage(p uint64) {
	s.curve.Refs++
	if s.havePage && p == s.lastPage {
		s.record(0)
		return
	}
	s.lastPage = p
	s.havePage = true
	d := s.eng.access(p)
	if d < 0 {
		s.curve.Cold++
		return
	}
	s.record(d)
}

func (s *StackSim) record(d int) {
	for d >= len(s.curve.Hist) {
		s.curve.Hist = append(s.curve.Hist, 0)
	}
	s.curve.Hist[d]++
}

// Curve returns the accumulated result. The returned value shares the
// histogram slice with the simulator; do not keep feeding references
// while using it.
func (s *StackSim) Curve() *Curve { return &s.curve }

// DistinctPages returns the number of distinct pages seen so far.
func (s *StackSim) DistinctPages() int { return s.eng.len() }

// --- move-to-front list engine (oracle) ---

type mtfList struct {
	order []uint64
	pos   map[uint64]struct{} // membership only; distance found by scan
}

func newMTFList() *mtfList {
	return &mtfList{pos: make(map[uint64]struct{})}
}

// errPageNotInList is pre-boxed at package init so the (unreachable)
// panic in the hot access path carries no per-call interface boxing.
var errPageNotInList any = "vm: page in map but not in list"

func (l *mtfList) access(page uint64) int {
	if _, ok := l.pos[page]; !ok {
		l.pos[page] = struct{}{}
		l.order = append(l.order, 0)
		copy(l.order[1:], l.order)
		l.order[0] = page
		return -1
	}
	for i, p := range l.order {
		if p == page {
			copy(l.order[1:i+1], l.order[:i])
			l.order[0] = page
			return i
		}
	}
	panic(errPageNotInList)
}

func (l *mtfList) len() int { return len(l.order) }
