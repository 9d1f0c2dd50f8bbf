// Package gnufit implements the paper's "GNU G++" allocator, Doug Lea's
// enhancement of the standard first-fit algorithm (the malloc
// distributed with libg++, an early ancestor of dlmalloc).
//
// It keeps an array of freelists segregated by object size: an
// appropriate freelist is selected based on the logarithm of the
// allocation request, which raises the probability of a quick, good
// fit. Within each bin, free blocks are connected in a doubly-linked
// list scanned first-fit; when a bin is exhausted, successively larger
// bins are consulted, whose first member is guaranteed to fit. In
// other respects — boundary tags, constant-time coalescing on free,
// splitting large blocks — it matches FIRSTFIT.
//
// The paper finds that searching fewer objects makes GNU G++ markedly
// more resilient than FIRSTFIT on page locality, but it remains the
// second-worst allocator for cache locality: it still searches and
// still coalesces.
package gnufit

import (
	"mallocsim/internal/alloc"
	"mallocsim/internal/mem"
)

const (
	// NumBins is the number of size-segregated freelists. Bin i holds
	// free blocks with size in [2^i, 2^(i+1)); the smallest legal block
	// is 16 bytes (bin 4) and bin NumBins-1 holds everything larger.
	NumBins = 28

	minBin = 4

	// SplitThreshold and ExpandChunk match FIRSTFIT.
	SplitThreshold = 24
	ExpandChunk    = mem.PageSize
)

// Allocator is a GNU G++ style segregated first-fit instance.
type Allocator struct {
	m        *mem.Memory
	h        alloc.BlockHeap
	bins     [NumBins]uint64 // sentinel addresses (0 for unused low bins)
	lowBlock uint64

	scanSteps uint64
	allocs    uint64
	frees     uint64
}

// New creates a GNU G++ allocator with its own heap region on m.
func New(m *mem.Memory) *Allocator {
	r := m.NewRegion("gnufit-heap", 0)
	a := &Allocator{m: m, h: alloc.BlockHeap{M: m, R: r}}
	// The bin sentinel array lives at the base of the heap region, so
	// bin probes are real references to a compact header area.
	for i := minBin; i < NumBins; i++ {
		head, err := a.h.NewListHead()
		if err != nil {
			panic("gnufit: sentinel sbrk failed: " + err.Error())
		}
		a.bins[i] = head
	}
	a.lowBlock = r.Brk()
	return a
}

func init() {
	alloc.Register("gnufit", func(m *mem.Memory) alloc.Allocator { return New(m) })
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "gnufit" }

// Region exposes the heap region; embedding allocators (QUICKFIT) carve
// their small blocks out of general-allocator chunks and need the
// region to encode pointers into it.
func (a *Allocator) Region() *mem.Region { return a.h.R }

// Allocator searches its bins' freelists, so it implements
// alloc.Scanner.
var _ alloc.Scanner = (*Allocator)(nil)

// ScanSteps implements alloc.Scanner: the cumulative number of
// freelist nodes examined.
func (a *Allocator) ScanSteps() uint64 { return a.scanSteps }

// binIndex returns the bin holding blocks of the given size:
// floor(log2(size)), clamped to the bin range.
func binIndex(size uint64) int {
	i := 0
	for s := size; s > 1; s >>= 1 {
		i++
	}
	if i < minBin {
		i = minBin
	}
	if i >= NumBins {
		i = NumBins - 1
	}
	return i
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(n uint32) (uint64, error) {
	a.allocs++
	alloc.Charge(a.m, 16) // rounding + log2 bin computation
	if n == 0 {
		n = mem.WordSize // Malloc(0) contract: one usable word
	}
	need := alloc.BlockSizeFor(n)
	start := binIndex(need)

	// First-fit scan of the bin that may contain just-fitting blocks.
	head := a.bins[start]
	for b := a.h.Next(head); b != head; b = a.h.Next(b) {
		size, _ := a.h.Header(b)
		alloc.Charge(a.m, 3)
		a.scanSteps++
		if size >= need {
			return a.allocateFrom(b, size, need), nil
		}
	}

	// Larger bins: any non-empty bin's first block fits, because every
	// block in bin j has size >= 2^j >= 2^(start+1) > need.
	for i := start + 1; i < NumBins; i++ {
		head := a.bins[i]
		b := a.h.Next(head) // one probe reference per bin examined
		alloc.Charge(a.m, 2)
		if b == head {
			continue
		}
		if i == NumBins-1 {
			// The top bin is unbounded above but also holds blocks as
			// small as 2^(NumBins-1)... in practice every block here is
			// huge; still scan first-fit for correctness.
			for ; b != head; b = a.h.Next(b) {
				size, _ := a.h.Header(b)
				alloc.Charge(a.m, 3)
				a.scanSteps++
				if size >= need {
					return a.allocateFrom(b, size, need), nil
				}
			}
			continue
		}
		size, _ := a.h.Header(b)
		a.scanSteps++
		return a.allocateFrom(b, size, need), nil
	}

	// Nothing anywhere: extend the heap.
	b, size, err := a.expand(need)
	if err != nil {
		return 0, err
	}
	return a.allocateFrom(b, size, need), nil
}

func (a *Allocator) allocateFrom(b, size, need uint64) uint64 {
	alloc.Charge(a.m, 4)
	a.h.Remove(b)
	if size >= need+SplitThreshold {
		rem := b + need
		remSize := size - need
		a.h.SetTags(rem, remSize, false)
		a.h.InsertAfter(a.bins[binIndex(remSize)], rem)
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
	a.h.InsertAfter(a.bins[binIndex(size)], b)
	return b, size, nil
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(p uint64) error {
	a.frees++
	alloc.Charge(a.m, 14)
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

	// Constant-time coalescing via boundary tags; the doubly-linked
	// bins allow neighbours to be unlinked without knowing their bin.
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
	a.h.InsertAfter(a.bins[binIndex(size)], b)
	return nil
}

// Stats reports basic operation counts.
func (a *Allocator) Stats() (allocs, frees, scanSteps uint64) {
	return a.allocs, a.frees, a.scanSteps
}

// Allocator can audit its own heap (shadow wrapper hook).
var _ alloc.Checker = (*Allocator)(nil)

// Check audits the heap representation (tags, tiling, bin consistency).
// The walk reads memory uncounted (see alloc.HeapCheck).
func (a *Allocator) Check() (alloc.HeapStats, error) {
	heads := make([]uint64, 0, NumBins)
	for i := minBin; i < NumBins; i++ {
		heads = append(heads, a.bins[i])
	}
	hc := alloc.HeapCheck{
		H:               &a.h,
		Lo:              a.lowBlock,
		Hi:              a.h.R.Brk(),
		Heads:           heads,
		ExpectCoalesced: true,
	}
	return hc.Run()
}
