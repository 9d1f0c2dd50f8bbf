package alloc

import (
	"fmt"

	"mallocsim/internal/mem"
)

// HeapCheck walks a boundary-tagged heap and verifies its structural
// invariants. It is the deep-integrity companion to the conformance
// battery: where alloctest checks the allocator's *behaviour*, HeapCheck
// audits the *representation* — every word of tag metadata in simulated
// memory.
//
// Checks performed:
//
//   - the block chain tiles [lo, hi) exactly: headers and footers agree,
//     sizes are word-aligned and at least MinBlock;
//   - no two adjacent free blocks exist when coalescing is expected;
//   - every free block in the chain appears on exactly one freelist
//     (the caller supplies the freelist heads), and every freelist node
//     lies inside the heap and is marked free.
//
// HeapCheck reads tag and link words through mem.Memory.PeekWord, so
// a walk emits no reference and charges no instruction: an audited run
// (the shadow wrapper's periodic audits) measures exactly what the
// unaudited run measures. The puresim analyzer holds Run to that rule.
type HeapCheck struct {
	H *BlockHeap
	// Lo and Hi bound the block area (lowBlock .. brk).
	Lo, Hi uint64
	// Heads are the freelist sentinels to audit.
	Heads []uint64
	// ExpectCoalesced asserts that no two free blocks are adjacent.
	ExpectCoalesced bool
}

// Stats summarizes a verified heap.
type HeapStats struct {
	Blocks     int
	FreeBlocks int
	FreeBytes  uint64
	LiveBytes  uint64
	// LargestFree is the biggest free block (external fragmentation
	// indicator: FreeBytes >> LargestFree means a shattered heap).
	LargestFree uint64
}

// Run walks the heap, returning statistics or the first violation.
func (hc *HeapCheck) Run() (HeapStats, error) {
	var st HeapStats
	freeAt := map[uint64]bool{}
	prevFree := false
	for b := hc.Lo; b < hc.Hi; {
		size, allocated := hc.tag(b)
		if size < MinBlock || size%mem.WordSize != 0 {
			return st, fmt.Errorf("alloc: block %#x has bad size %d", b, size)
		}
		if b+size > hc.Hi {
			return st, fmt.Errorf("alloc: block %#x (size %d) overruns heap end %#x", b, size, hc.Hi)
		}
		fsize, falloc := hc.tag(b + size - mem.WordSize)
		if fsize != size || falloc != allocated {
			return st, fmt.Errorf("alloc: block %#x header (%d,%v) disagrees with footer (%d,%v)",
				b, size, allocated, fsize, falloc)
		}
		st.Blocks++
		if allocated {
			st.LiveBytes += size
			prevFree = false
		} else {
			if prevFree && hc.ExpectCoalesced {
				return st, fmt.Errorf("alloc: adjacent free blocks at %#x", b)
			}
			prevFree = true
			st.FreeBlocks++
			st.FreeBytes += size
			if size > st.LargestFree {
				st.LargestFree = size
			}
			freeAt[b] = true
		}
		b += size
	}

	// Audit the freelists against the chain walk.
	seen := map[uint64]bool{}
	for _, head := range hc.Heads {
		for b := hc.next(head); b != head; b = hc.next(b) {
			if b < hc.Lo || b >= hc.Hi {
				return st, fmt.Errorf("alloc: freelist node %#x outside heap", b)
			}
			if !freeAt[b] {
				return st, fmt.Errorf("alloc: freelist node %#x is not a free block", b)
			}
			if seen[b] {
				return st, fmt.Errorf("alloc: block %#x on two freelists", b)
			}
			seen[b] = true
			if _, allocated := hc.tag(b); allocated {
				return st, fmt.Errorf("alloc: freelist node %#x marked allocated", b)
			}
		}
	}
	if len(seen) != st.FreeBlocks {
		return st, fmt.Errorf("alloc: %d free blocks in heap but %d on freelists",
			st.FreeBlocks, len(seen))
	}
	return st, nil
}

// tag reads the tag word at addr uncounted.
func (hc *HeapCheck) tag(addr uint64) (size uint64, allocated bool) {
	return unpackTag(hc.H.M.PeekWord(addr))
}

// next reads b's freelist successor uncounted.
func (hc *HeapCheck) next(b uint64) uint64 {
	return hc.H.R.DecodePtr(hc.H.M.PeekWord(b + offNext))
}
