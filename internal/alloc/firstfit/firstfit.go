// Package firstfit implements the paper's FIRSTFIT allocator: a
// first-fit strategy with the optimizations suggested by Knuth, as
// implemented by Mark Moraes.
//
// All free blocks are connected in a single circular doubly-linked
// freelist that is scanned during allocation for the first sufficiently
// large block. The found block is split when the remainder is large
// enough (at least 24 bytes); the freelist pointer is a roving pointer,
// which eliminates the aggregation of small blocks at the front of the
// list. Allocated blocks carry two words of boundary-tag overhead, one
// at each end, allowing objects to be coalesced with adjacent free
// storage in constant time when freed.
//
// The paper's verdict: this classic design has disastrous page and
// cache locality, because the allocation scan visits free objects
// scattered across the whole address space.
package firstfit

import (
	"mallocsim/internal/alloc"
	"mallocsim/internal/mem"
)

// SplitThreshold is the minimum remainder worth splitting off; smaller
// leftovers stay attached to the allocated block ("if the extra piece
// is too small — in this case less than 24 bytes — the block is not
// split").
const SplitThreshold = 24

// ExpandChunk is the minimum sbrk growth when the freelist has no fit.
const ExpandChunk = mem.PageSize

// Option configures the allocator (used for the design-decision
// ablations in the benchmark suite).
type Option func(*Allocator)

// WithoutCoalescing disables boundary-tag coalescing on free, isolating
// the locality cost/benefit of coalescing (a §4.1 design discussion).
func WithoutCoalescing() Option {
	return func(a *Allocator) { a.coalesce = false }
}

// WithoutRover disables the roving pointer: every scan starts at the
// list head, recreating the classic small-blocks-up-front pathology.
func WithoutRover() Option {
	return func(a *Allocator) { a.roving = false }
}

// WithAddressOrder keeps the freelist sorted by address, the coalescing
// alternative the paper's §4.1 weighs ("maintaining a sorted list takes
// considerable CPU time and many pages will be visited when objects are
// inserted in order"). Address-ordered first fit is the classic
// low-fragmentation policy; this option lets the benchmarks price its
// insertion walks against the roving-pointer default. Implies no
// roving pointer.
func WithAddressOrder() Option {
	return func(a *Allocator) {
		a.addrOrder = true
		a.roving = false
	}
}

// Allocator is a FIRSTFIT instance. Create with New.
type Allocator struct {
	m         *mem.Memory
	h         alloc.BlockHeap
	head      uint64 // freelist sentinel
	rover     uint64 // roving scan start (a list node: free block or head)
	lowBlock  uint64 // first address that can hold a block
	coalesce  bool
	roving    bool
	addrOrder bool

	scanSteps uint64
	allocs    uint64
	frees     uint64
}

// New creates a FIRSTFIT allocator with its own heap region on m.
func New(m *mem.Memory, opts ...Option) *Allocator {
	r := m.NewRegion("firstfit-heap", 0)
	a := &Allocator{
		m:        m,
		h:        alloc.BlockHeap{M: m, R: r},
		coalesce: true,
		roving:   true,
	}
	head, err := a.h.NewListHead()
	if err != nil {
		panic("firstfit: sentinel sbrk failed: " + err.Error())
	}
	a.head = head
	a.rover = head
	a.lowBlock = r.Brk()
	for _, o := range opts {
		o(a)
	}
	return a
}

func init() {
	alloc.Register("firstfit", func(m *mem.Memory) alloc.Allocator { return New(m) })
	alloc.Register("firstfit-nocoalesce", func(m *mem.Memory) alloc.Allocator {
		return New(m, WithoutCoalescing())
	})
	alloc.Register("firstfit-norover", func(m *mem.Memory) alloc.Allocator {
		return New(m, WithoutRover())
	})
	alloc.Register("firstfit-addrorder", func(m *mem.Memory) alloc.Allocator {
		return New(m, WithAddressOrder())
	})
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "firstfit" }

// Allocator searches the freelist, so it implements alloc.Scanner.
var _ alloc.Scanner = (*Allocator)(nil)

// ScanSteps implements alloc.Scanner: the cumulative number of
// freelist nodes examined.
func (a *Allocator) ScanSteps() uint64 { return a.scanSteps }

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(n uint32) (uint64, error) {
	a.allocs++
	alloc.Charge(a.m, 12) // size rounding, list setup
	if n == 0 {
		n = mem.WordSize // Malloc(0) contract: one usable word
	}
	need := alloc.BlockSizeFor(n)

	start := a.rover
	if !a.roving {
		start = a.head
	}
	b := start
	for {
		if b != a.head {
			size, _ := a.h.Header(b)
			alloc.Charge(a.m, 3) // compare + branch
			a.scanSteps++
			if size >= need {
				return a.allocateFrom(b, size, need), nil
			}
		}
		b = a.h.Next(b)
		if b == start {
			break
		}
	}

	// No fit: extend the heap and allocate from the new space.
	b, size, err := a.expand(need)
	if err != nil {
		return 0, err
	}
	return a.allocateFrom(b, size, need), nil
}

// allocateFrom takes block b (a freelist member of the given size) and
// returns the payload of a `need`-sized allocation carved from it.
func (a *Allocator) allocateFrom(b, size, need uint64) uint64 {
	alloc.Charge(a.m, 4)
	if size >= need+SplitThreshold {
		// Split: the remainder replaces b on the freelist.
		rem := b + need
		a.h.SetTags(rem, size-need, false)
		a.h.InsertAfter(b, rem)
		a.h.Remove(b)
		a.setRover(rem)
		size = need
	} else {
		next := a.h.Remove(b)
		a.setRover(next)
	}
	a.h.SetTags(b, size, true)
	return a.h.Payload(b)
}

func (a *Allocator) setRover(node uint64) {
	if a.roving {
		a.rover = node
	}
}

// expand grows the heap by at least `need` bytes, coalescing the new
// space with a free block at the old heap top, and returns the
// resulting free block (already on the freelist) and its size.
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
			a.unlink(prev)
			b = prev
			size += psize
		}
	}
	a.h.SetTags(b, size, false)
	a.insertFree(b)
	return b, size, nil
}

// insertFree links a free block into the list according to the policy:
// address-ordered (a paid walk over the list), immediately before the
// rover, or at the list front.
func (a *Allocator) insertFree(b uint64) {
	if a.addrOrder {
		// The sorted-insert walk the paper prices: every node visited
		// until the insertion point is a real memory reference.
		prev := a.head
		for cur := a.h.Next(a.head); cur != a.head && cur < b; cur = a.h.Next(cur) {
			alloc.Charge(a.m, 2)
			prev = cur
		}
		a.h.InsertAfter(prev, b)
		return
	}
	a.h.InsertAfter(a.insertPos(), b)
}

// insertPos returns the list position after which freed or new blocks
// are inserted: immediately before the rover (so they re-enter the scan
// window next), or at the list front when the rover is disabled.
func (a *Allocator) insertPos() uint64 {
	if a.roving {
		return a.h.Prev(a.rover)
	}
	return a.head
}

// unlink removes b from the freelist, repairing the rover if it pointed
// at b.
func (a *Allocator) unlink(b uint64) {
	next := a.h.Remove(b)
	if a.rover == b {
		a.rover = next
	}
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(p uint64) error {
	a.frees++
	alloc.Charge(a.m, 12)
	if p%mem.WordSize != 0 || p < a.lowBlock+mem.WordSize || p >= a.h.R.Brk() {
		return alloc.ErrBadFree
	}
	b := a.h.BlockOf(p)
	size, allocated := a.h.Header(b)
	if !allocated || size < alloc.MinBlock || b+size > a.h.R.Brk() {
		return alloc.ErrBadFree
	}
	// Boundary tags must agree. A header alone can be stale — after
	// this block's neighbourhood coalesced, the old header word survives
	// inside the merged free block — so a double free (or an interior
	// pointer landing on plausible bits) passes the header test. The
	// footer of a live block is always in sync with its header.
	if fsize, falloc := a.h.FooterBefore(b + size); fsize != size || !falloc {
		return alloc.ErrBadFree
	}
	// Mark the block free before coalescing. When it merges into a
	// neighbour, only the merged extent gets fresh tags; this block's own
	// header word would otherwise survive inside the free area still
	// reading "allocated", letting a later double free pass the checks
	// above.
	a.h.SetTags(b, size, false)

	if a.coalesce {
		alloc.Charge(a.m, 4)
		// Merge with the following block if free.
		if next := b + size; next < a.h.R.Brk() {
			if nsize, nalloc := a.h.Header(next); !nalloc {
				a.unlink(next)
				size += nsize
			}
		}
		// Merge with the preceding block if free.
		if b > a.lowBlock {
			if psize, palloc := a.h.FooterBefore(b); !palloc {
				prev := b - psize
				a.unlink(prev)
				b = prev
				size += psize
			}
		}
	}

	a.h.SetTags(b, size, false)
	// Default policy: insert just behind the rover. The rover itself
	// advances only on allocation (Knuth), so freshly freed blocks are
	// the *last* the next scan reaches — the scan first revisits the
	// accumulated free blocks scattered across the address space, which
	// is precisely the reference behaviour the paper indicts.
	a.insertFree(b)
	return nil
}

// Stats reports basic operation counts.
func (a *Allocator) Stats() (allocs, frees, scanSteps uint64) {
	return a.allocs, a.frees, a.scanSteps
}

// Allocator can audit its own heap (shadow wrapper hook).
var _ alloc.Checker = (*Allocator)(nil)

// Check audits the heap representation (tags, tiling, freelist
// consistency). The walk reads memory uncounted (see alloc.HeapCheck),
// so the shadow wrapper's audits leave the measured run unchanged.
func (a *Allocator) Check() (alloc.HeapStats, error) {
	hc := alloc.HeapCheck{
		H:               &a.h,
		Lo:              a.lowBlock,
		Hi:              a.h.R.Brk(),
		Heads:           []uint64{a.head},
		ExpectCoalesced: a.coalesce,
	}
	return hc.Run()
}
