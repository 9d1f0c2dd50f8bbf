// Package alloc exercises puresim's second root: the heap audit walk,
// alloc.(*HeapCheck).Run, must read simulated memory only through the
// uncounted (*mem.Memory).PeekWord.
package alloc

import "mem"

// BlockHeap is the fixture stand-in for the boundary-tag machinery.
type BlockHeap struct {
	M *mem.Memory
	R *mem.Region
}

// Header is the allocator's counted tag read.
func (h *BlockHeap) Header(b uint64) uint64 { return h.M.ReadWord(b) }

// Next is a counted link read that no root reaches: the allocator's
// own reads stay legal.
func (h *BlockHeap) Next(b uint64) uint64 { return h.R.DecodePtr(h.M.ReadWord(b)) }

// HeapCheck is the fixture stand-in for the heap auditor.
type HeapCheck struct {
	H      *BlockHeap
	Lo, Hi uint64
}

// Run peeks at every tag, then strays into the counted read.
func (hc *HeapCheck) Run() uint64 {
	var sum uint64
	for b := hc.Lo; b < hc.Hi; b += mem.WordSize {
		sum += hc.peek(b) // ok: uncounted
	}
	return sum + hc.H.Header(hc.Lo) // want `\(\*mem\.Memory\)\.ReadWord is reachable from the heap audit`
}

func (hc *HeapCheck) peek(addr uint64) uint64 { return hc.H.M.PeekWord(addr) }
