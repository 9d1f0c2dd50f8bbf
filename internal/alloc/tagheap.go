package alloc

import (
	"fmt"

	"mallocsim/internal/mem"
)

// BlockHeap provides the boundary-tagged block machinery shared by the
// sequential-fit allocators (FIRSTFIT and GNU G++).
//
// Block layout (all sizes in bytes, multiples of the word size):
//
//	+0            header word:  blockSize | allocBit
//	+4            payload (for free blocks: freelist next pointer)
//	+8            ...     (for free blocks: freelist prev pointer)
//	+size-4       footer word:  blockSize | allocBit
//
// blockSize includes both tag words, so an allocated block carries
// exactly the "two extra words of overhead (boundary tags), one at each
// end of the block, which contain the size of the block and its current
// status" the paper describes. Boundary tags let Free coalesce with
// adjacent free storage in constant time.
//
// Free blocks are linked into circular doubly-linked freelists through
// their first two payload words. List sentinels are 16-byte pseudo
// blocks carved from the same region so that link updates are real
// memory references. Stored pointers are region-relative (see
// mem.Region.EncodePtr); offset 0 is NULL.
type BlockHeap struct {
	M *mem.Memory
	R *mem.Region
}

const (
	// TagOverhead is the per-block boundary tag cost: one header plus
	// one footer word (8 bytes — the figure the paper uses in its
	// Table 6 cache-pollution ablation).
	TagOverhead = 2 * mem.WordSize
	// MinBlock is the smallest legal block: tags plus the two freelist
	// link words a free block must hold.
	MinBlock = 16

	allocBit = 1
	sizeMask = ^uint64(3)
)

// PackTag encodes a tag word.
func PackTag(size uint64, allocated bool) uint64 {
	w := size
	if allocated {
		w |= allocBit
	}
	return w
}

// unpackTag decodes a tag word.
func unpackTag(w uint64) (size uint64, allocated bool) {
	return w & sizeMask, w&allocBit != 0
}

// Header reads block b's header tag.
func (h *BlockHeap) Header(b uint64) (size uint64, allocated bool) {
	return unpackTag(h.M.ReadWord(b))
}

// FooterBefore reads the footer tag of the block that ends at address b
// (i.e. the word at b-4), giving the left neighbour's size and status.
func (h *BlockHeap) FooterBefore(b uint64) (size uint64, allocated bool) {
	return unpackTag(h.M.ReadWord(b - mem.WordSize))
}

// SetTags writes both boundary tags of block b.
func (h *BlockHeap) SetTags(b, size uint64, allocated bool) {
	w := PackTag(size, allocated)
	h.M.WriteWord(b, w)
	h.M.WriteWord(b+size-mem.WordSize, w)
}

// SetHeader rewrites only the header tag.
func (h *BlockHeap) SetHeader(b, size uint64, allocated bool) {
	h.M.WriteWord(b, PackTag(size, allocated))
}

// Payload returns the payload address of block b.
func (h *BlockHeap) Payload(b uint64) uint64 { return b + mem.WordSize }

// BlockOf returns the block address owning payload address p.
func (h *BlockHeap) BlockOf(p uint64) uint64 { return p - mem.WordSize }

// BlockSizeFor returns the block size needed to satisfy a payload
// request of n bytes: payload rounded up to the word size plus tag
// overhead, with the block able to hold freelist links once freed.
func BlockSizeFor(n uint32) uint64 {
	size := mem.AlignUp(uint64(n), mem.WordSize) + TagOverhead
	if size < MinBlock {
		size = MinBlock
	}
	return size
}

// --- circular doubly-linked freelist, links in simulated memory ---

const (
	offNext = 1 * mem.WordSize // word offset of the next link
	offPrev = 2 * mem.WordSize // word offset of the prev link
)

// NewListHead carves a 16-byte sentinel pseudo-block from the region
// and initializes it to an empty circular list.
func (h *BlockHeap) NewListHead() (uint64, error) {
	head, err := h.R.Sbrk(MinBlock)
	if err != nil {
		return 0, err
	}
	// Mark the sentinel allocated with size 0 so coalescing scans that
	// accidentally land on it see an un-mergeable block.
	h.M.WriteWord(head, PackTag(0, true))
	h.SetNext(head, head)
	h.SetPrev(head, head)
	return head, nil
}

// Next returns the freelist successor of b.
func (h *BlockHeap) Next(b uint64) uint64 {
	return h.R.DecodePtr(h.M.ReadWord(b + offNext))
}

// Prev returns the freelist predecessor of b.
func (h *BlockHeap) Prev(b uint64) uint64 {
	return h.R.DecodePtr(h.M.ReadWord(b + offPrev))
}

// SetNext writes b's next link.
func (h *BlockHeap) SetNext(b, v uint64) {
	h.M.WriteWord(b+offNext, h.R.EncodePtr(v))
}

// SetPrev writes b's prev link.
func (h *BlockHeap) SetPrev(b, v uint64) {
	h.M.WriteWord(b+offPrev, h.R.EncodePtr(v))
}

// InsertAfter links block b into the list directly after position at.
// Cost: 2 reads/writes on b, one write each on the neighbours — the
// "three objects modified to insert an item" the paper charges against
// doubly-linked freelists.
func (h *BlockHeap) InsertAfter(at, b uint64) {
	next := h.Next(at)
	h.SetNext(b, next)
	h.SetPrev(b, at)
	h.SetNext(at, b)
	h.SetPrev(next, b)
}

// Remove unlinks block b from its list and returns its former successor.
func (h *BlockHeap) Remove(b uint64) uint64 {
	next := h.Next(b)
	prev := h.Prev(b)
	h.SetNext(prev, next)
	h.SetPrev(next, prev)
	return next
}

// CheckList panics if the circular list rooted at head is structurally
// corrupt (next/prev mismatch). For tests and debugging; it performs
// real (counted) memory accesses, so production paths must not call it.
func (h *BlockHeap) CheckList(head uint64) {
	b := head
	for {
		next := h.Next(b)
		if h.Prev(next) != b {
			panic(fmt.Sprintf("alloc: freelist corrupt at %#x: next %#x has prev %#x", b, next, h.Prev(next)))
		}
		b = next
		if b == head {
			return
		}
	}
}
