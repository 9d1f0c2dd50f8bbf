// Package bestfit implements the classic best-fit sequential allocator,
// the other member of the paper's "sequential-fit methods, such as
// first-fit, best-fit, etc." family (Standish's taxonomy, §2.1).
//
// Allocation scans the entire freelist and takes the smallest
// sufficiently large block — the tightest fit minimizes leftover
// fragments, the textbook space argument for best fit. The locality
// price is even steeper than FIRSTFIT's: every allocation touches
// every free block in the heap, so the paper's conclusion ("allocators
// based on sequential-fit methods ... have poor reference locality")
// applies a fortiori. The benchmark suite uses this implementation to
// extend the paper's Figure 6–8 comparison with the full sequential-fit
// family.
//
// Block layout, boundary tags, splitting and coalescing match FIRSTFIT
// (package alloc.BlockHeap).
package bestfit

import (
	"mallocsim/internal/alloc"
	"mallocsim/internal/mem"
)

// SplitThreshold and ExpandChunk match the other sequential allocators.
const (
	SplitThreshold = 24
	ExpandChunk    = mem.PageSize
)

// Allocator is a best-fit instance.
type Allocator struct {
	m        *mem.Memory
	h        alloc.BlockHeap
	head     uint64
	lowBlock uint64

	scanSteps uint64
	allocs    uint64
	frees     uint64
}

// New creates a best-fit allocator with its own heap region on m.
func New(m *mem.Memory) *Allocator {
	r := m.NewRegion("bestfit-heap", 0)
	a := &Allocator{m: m, h: alloc.BlockHeap{M: m, R: r}}
	head, err := a.h.NewListHead()
	if err != nil {
		panic("bestfit: sentinel sbrk failed: " + err.Error())
	}
	a.head = head
	a.lowBlock = r.Brk()
	return a
}

func init() {
	alloc.Register("bestfit", func(m *mem.Memory) alloc.Allocator { return New(m) })
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "bestfit" }

// Allocator searches the freelist, so it implements alloc.Scanner.
var _ alloc.Scanner = (*Allocator)(nil)

// ScanSteps implements alloc.Scanner: the cumulative number of
// freelist nodes examined.
func (a *Allocator) ScanSteps() uint64 { return a.scanSteps }

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(n uint32) (uint64, error) {
	a.allocs++
	alloc.Charge(a.m, 8)
	if n == 0 {
		n = mem.WordSize // Malloc(0) contract: one usable word
	}
	need := alloc.BlockSizeFor(n)

	// Exhaustive scan for the tightest fit; an exact fit ends early
	// (the only shortcut best fit allows itself).
	var best, bestSize uint64
	for b := a.h.Next(a.head); b != a.head; b = a.h.Next(b) {
		size, _ := a.h.Header(b)
		alloc.Charge(a.m, 4)
		a.scanSteps++
		if size >= need && (best == 0 || size < bestSize) {
			best, bestSize = b, size
			if size == need {
				break
			}
		}
	}
	if best == 0 {
		var err error
		best, bestSize, err = a.expand(need)
		if err != nil {
			return 0, err
		}
	}
	return a.allocateFrom(best, bestSize, need), nil
}

func (a *Allocator) allocateFrom(b, size, need uint64) uint64 {
	alloc.Charge(a.m, 4)
	a.h.Remove(b)
	if size >= need+SplitThreshold {
		rem := b + need
		a.h.SetTags(rem, size-need, false)
		a.h.InsertAfter(a.head, rem)
		size = need
	}
	a.h.SetTags(b, size, true)
	return a.h.Payload(b)
}

func (a *Allocator) expand(need uint64) (uint64, uint64, error) {
	grow := need
	if grow < ExpandChunk {
		grow = ExpandChunk
	}
	addr, err := a.h.R.Sbrk(grow)
	if err != nil {
		return 0, 0, err
	}
	b, size := addr, grow
	if addr > a.lowBlock {
		if psize, palloc := a.h.FooterBefore(addr); !palloc {
			prev := addr - psize
			a.h.Remove(prev)
			b = prev
			size += psize
		}
	}
	a.h.SetTags(b, size, false)
	a.h.InsertAfter(a.head, b)
	return b, size, nil
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(p uint64) error {
	a.frees++
	alloc.Charge(a.m, 8)
	if p%mem.WordSize != 0 || p < a.lowBlock+mem.WordSize || p >= a.h.R.Brk() {
		return alloc.ErrBadFree
	}
	b := a.h.BlockOf(p)
	size, allocated := a.h.Header(b)
	if !allocated || size < alloc.MinBlock || b+size > a.h.R.Brk() {
		return alloc.ErrBadFree
	}
	// Both boundary tags must agree: a lone header can be a stale word
	// inside a since-coalesced free block (double free) or arbitrary
	// payload bits (interior pointer).
	if fsize, falloc := a.h.FooterBefore(b + size); fsize != size || !falloc {
		return alloc.ErrBadFree
	}
	// Mark the block free before coalescing, so its own header never
	// survives inside a merged free area still reading "allocated" (the
	// double-free hole the footer check alone cannot close when both
	// neighbours are free).
	a.h.SetTags(b, size, false)
	if next := b + size; next < a.h.R.Brk() {
		if nsize, nalloc := a.h.Header(next); !nalloc {
			a.h.Remove(next)
			size += nsize
		}
	}
	if b > a.lowBlock {
		if psize, palloc := a.h.FooterBefore(b); !palloc {
			prev := b - psize
			a.h.Remove(prev)
			b = prev
			size += psize
		}
	}
	a.h.SetTags(b, size, false)
	a.h.InsertAfter(a.head, b)
	return nil
}

// Stats reports basic operation counts.
func (a *Allocator) Stats() (allocs, frees, scanSteps uint64) {
	return a.allocs, a.frees, a.scanSteps
}

// Allocator can audit its own heap (shadow wrapper hook).
var _ alloc.Checker = (*Allocator)(nil)

// Check audits the heap representation. The walk reads memory
// uncounted (see alloc.HeapCheck).
func (a *Allocator) Check() (alloc.HeapStats, error) {
	hc := alloc.HeapCheck{
		H:               &a.h,
		Lo:              a.lowBlock,
		Hi:              a.h.R.Brk(),
		Heads:           []uint64{a.head},
		ExpectCoalesced: true,
	}
	return hc.Run()
}
