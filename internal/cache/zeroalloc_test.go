package cache

import (
	"testing"

	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

// The hotalloc analyzer bans closures, boxing and make/new on the hot
// paths statically; these tests pin the dynamic half of the contract —
// append growth into warm buffers and lazy page materialization are
// amortized, so the warmed steady state performs zero heap allocations
// per sweep.

// zeroAllocBlock builds a block mixing plain rows and run rows, the
// shape the fused sweep sees from the workload driver, repeated in each
// of the first spans mem region spans: a server pair's layout puts its
// dozen regions in a dozen spans, so the directory's multi-span path
// must be warm-allocation-free too.
func zeroAllocBlock(spans int) *trace.Block {
	b := &trace.Block{}
	for s := 0; s < spans; s++ {
		addr := uint64(s)*mem.RegionSpan + 0x4000
		for i := 0; i < 512; i++ {
			b.Append(trace.Ref{Addr: addr, Size: 8, Kind: trace.Read})
			addr += 24
			if i%7 == 0 {
				b.AppendRun(addr, 16, trace.Write, 32)
				addr += 16 * 32
			}
			if i%61 == 0 {
				addr += 1 << 18 // jump pages so the line sets span several bitmap pages
			}
		}
	}
	return b
}

// TestGroupBlockSweepZeroAlloc pins Block's fused path: every member
// direct mapped and write-allocate, as in the paper's groups.
func TestGroupBlockSweepZeroAlloc(t *testing.T) {
	g := NewGroup(Config{Size: 8 << 10}, Config{Size: 16 << 10}, Config{Size: 64 << 10})
	if !g.fused {
		t.Fatal("the fixture's group is not fused")
	}
	b := zeroAllocBlock(12)
	g.Block(b) // materialize line-set pages and counters
	if avg := testing.AllocsPerRun(20, func() { g.Block(b) }); avg != 0 {
		t.Errorf("warmed fused Group.Block sweep allocates %.1f allocs/op, want 0", avg)
	}
}

// TestGroupBlockExpandZeroAlloc pins Block's other path, the expansion
// through Ref, on a group with set-associative members.
func TestGroupBlockExpandZeroAlloc(t *testing.T) {
	g := NewGroup(
		Config{Size: 8 << 10},
		Config{Size: 16 << 10, Assoc: 2},
		Config{Size: 64 << 10, Assoc: 4},
	)
	if g.fused {
		t.Fatal("the fixture's group is fused")
	}
	b := zeroAllocBlock(12)
	g.Block(b) // materialize line-set pages
	if avg := testing.AllocsPerRun(20, func() { g.Block(b) }); avg != 0 {
		t.Errorf("warmed unfused Group.Block allocates %.1f allocs/op, want 0", avg)
	}
}

func TestSharingBlockZeroAlloc(t *testing.T) {
	s := NewSharing(SharingConfig{RegionOf: testRegionOf})
	// Tid-striped variant of the standard block so sharing events
	// actually fire during the sweep (the event path must be warm too:
	// its region×thread counters and ping-line pages are materialized
	// on first use and reused after).
	b := zeroAllocBlock(12)
	tids := make([]uint8, b.Len())
	for i := range tids {
		tids[i] = uint8(i % 4)
	}
	b.Tids = tids
	s.Block(b) // materialize coherence pages, counters and ping-line pages
	if s.Events() == 0 {
		t.Fatal("warm-up sweep produced no sharing events; the fixture is too weak")
	}
	if avg := testing.AllocsPerRun(20, func() { s.Block(b) }); avg != 0 {
		t.Errorf("warmed Sharing.Block sweep allocates %.1f allocs/op, want 0", avg)
	}
}

func TestLineSetAddRangeZeroAlloc(t *testing.T) {
	s := newLineSet(defaultLineShift)
	warm := func() {
		s.add(3)
		s.addRange(0, 4096)             // within one page
		s.addRange(60_000, 75_000)      // crosses page boundaries
		s.addRange(1<<30, 1<<30+10_000) // sparse territory
		s.addRange(1<<30+20_000, 1<<30+120_000)
	}
	warm() // materialize dense and sparse pages
	if avg := testing.AllocsPerRun(50, warm); avg != 0 {
		t.Errorf("warmed lineSet.add/addRange allocates %.1f allocs/op, want 0", avg)
	}
}
