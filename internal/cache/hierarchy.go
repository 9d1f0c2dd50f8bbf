package cache

import "mallocsim/internal/trace"

// Hierarchy simulates a two-level cache, the organization the paper
// cites from Mogul & Borg ("a hypothetical two-level cache that
// requires 200 cycles to service a second-level cache miss"). The L1
// is probed first; L1 misses probe the L2; L2 misses go to memory.
// Inclusion is not enforced (each level fills independently), matching
// simple early-1990s two-level designs.
//
// Cycle accounting uses per-level service times: an L1 hit costs
// L1Hit, an L1 miss satisfied by L2 costs L2Hit, and a full miss costs
// MemPenalty, enabling execution-time estimates under deep-hierarchy
// assumptions (the regime where the paper predicts GNU LOCAL's
// locality investment pays off).
type Hierarchy struct {
	L1 *Cache
	L2 *Cache

	// Service times in cycles (defaults: 1 / 12 / 200).
	L1Hit      uint64
	L2Hit      uint64
	MemPenalty uint64

	accesses uint64
	l1Misses uint64
	l2Misses uint64
}

// NewHierarchy builds a two-level hierarchy from two configurations.
// The levels must share a line size.
func NewHierarchy(l1, l2 Config) *Hierarchy {
	a, b := New(l1), New(l2)
	if a.cfg.LineSize != b.cfg.LineSize {
		panic("cache: hierarchy levels must share a line size")
	}
	return &Hierarchy{L1: a, L2: b, L1Hit: 1, L2Hit: 12, MemPenalty: 200}
}

// Ref implements trace.Sink.
func (h *Hierarchy) Ref(r trace.Ref) {
	first, last := span(r.Addr, r.Size, h.L1.lineShift)
	write := r.Kind == trace.Write
	if first == last {
		h.accessLine(first, write)
		return
	}
	for line := first; ; line++ {
		h.accessLine(line, write)
		if line == last {
			break
		}
	}
}

func (h *Hierarchy) accessLine(line uint64, write bool) {
	h.accesses++
	l1Before := h.L1.misses
	h.L1.accessLine(line, write)
	if h.L1.misses == l1Before {
		return // L1 hit
	}
	h.l1Misses++
	l2Before := h.L2.misses
	h.L2.accessLine(line, write)
	if h.L2.misses != l2Before {
		h.l2Misses++
	}
}

// Accesses returns the total line accesses.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// L1Misses returns accesses that missed the first level.
func (h *Hierarchy) L1Misses() uint64 { return h.l1Misses }

// L2Misses returns accesses that missed both levels.
func (h *Hierarchy) L2Misses() uint64 { return h.l2Misses }

// L1MissRate returns l1 misses per access.
func (h *Hierarchy) L1MissRate() float64 {
	if h.accesses == 0 {
		return 0
	}
	return float64(h.l1Misses) / float64(h.accesses)
}

// GlobalMissRate returns full (memory) misses per access.
func (h *Hierarchy) GlobalMissRate() float64 {
	if h.accesses == 0 {
		return 0
	}
	return float64(h.l2Misses) / float64(h.accesses)
}

// StallCycles returns the memory-stall cycles beyond the one-cycle
// pipeline assumption: (L2Hit-1) per L2 hit plus (MemPenalty-1) per
// full miss.
func (h *Hierarchy) StallCycles() uint64 {
	l2hits := h.l1Misses - h.l2Misses
	return l2hits*(h.L2Hit-1) + h.l2Misses*(h.MemPenalty-1)
}
