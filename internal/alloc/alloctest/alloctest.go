// Package alloctest provides a conformance battery run against every
// allocator implementation. It checks the invariants any malloc must
// uphold regardless of policy: live allocations never overlap, returned
// addresses are aligned, allocator metadata never intrudes on live
// payloads, memory freed is memory reused (bounded footprint under
// steady-state churn), and bad frees are rejected without panicking.
package alloctest

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"mallocsim/internal/alloc"
	"mallocsim/internal/alloc/shadow"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// Factory builds a fresh allocator on a fresh Memory.
type Factory func(m *mem.Memory) alloc.Allocator

// Options tunes the battery for deliberately degraded variants.
type Options struct {
	// SkipSteadyState disables the sawtooth steady-state footprint
	// check, for allocators whose whole point is to demonstrate
	// fragmentation (e.g. first fit without coalescing).
	SkipSteadyState bool
	// MaxSize caps request sizes for allocators with a bounded maximum
	// block (the buddy system's arena order). Zero means unlimited.
	MaxSize uint32
}

func (o Options) clamp(n uint32) uint32 {
	if o.MaxSize != 0 && n > o.MaxSize {
		return o.MaxSize
	}
	return n
}

// Run executes the conformance battery against the factory.
func Run(t *testing.T, f Factory) { RunOpts(t, f, Options{}) }

// RunOpts executes the conformance battery with options.
func RunOpts(t *testing.T, f Factory, o Options) {
	t.Run("Alignment", func(t *testing.T) { testAlignment(t, f) })
	t.Run("NoOverlap", func(t *testing.T) { testNoOverlap(t, f) })
	t.Run("PayloadIntegrity", func(t *testing.T) { testPayloadIntegrity(t, f) })
	t.Run("BoundedChurn", func(t *testing.T) { testBoundedChurn(t, f) })
	t.Run("BadFree", func(t *testing.T) { testBadFree(t, f) })
	t.Run("ZeroSize", func(t *testing.T) { testZeroSize(t, f) })
	t.Run("DoubleFree", func(t *testing.T) { testDoubleFree(t, f) })
	t.Run("InteriorFree", func(t *testing.T) { testInteriorFree(t, f) })
	t.Run("OutOfMemory", func(t *testing.T) { testOutOfMemory(t, f) })
	t.Run("ShadowOracle", func(t *testing.T) { testShadowOracle(t, f, o) })
	t.Run("LocalityHints", func(t *testing.T) { testLocalityHints(t, f) })
	if !o.SkipSteadyState {
		t.Run("SawtoothPattern", func(t *testing.T) { testSawtooth(t, f) })
	}
	t.Run("LargeObjectStress", func(t *testing.T) { testLargeObjects(t, f, o) })
	t.Run("QuickRandomOps", func(t *testing.T) { testQuickRandomOps(t, f) })
	t.Run("Determinism", func(t *testing.T) { testDeterminism(t, f) })
}

func newAlloc(f Factory) (alloc.Allocator, *mem.Memory) {
	m := mem.New(trace.Discard, &cost.Meter{})
	return f(m), m
}

type block struct {
	addr uint64
	size uint32
}

func overlaps(a block, b block) bool {
	return a.addr < b.addr+uint64(b.size) && b.addr < a.addr+uint64(a.size)
}

func testAlignment(t *testing.T, f Factory) {
	a, _ := newAlloc(f)
	for _, n := range []uint32{1, 2, 3, 4, 5, 8, 12, 13, 24, 31, 32, 33, 64, 100, 4096, 10000} {
		p, err := a.Malloc(n)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", n, err)
		}
		if p == 0 {
			t.Fatalf("Malloc(%d) returned null", n)
		}
		if p%mem.WordSize != 0 {
			t.Errorf("Malloc(%d) = %#x: not word-aligned", n, p)
		}
	}
}

func testNoOverlap(t *testing.T, f Factory) {
	a, _ := newAlloc(f)
	r := rng.New(42)
	var live []block
	for op := 0; op < 4000; op++ {
		if len(live) > 0 && (r.Bool(0.45) || len(live) > 300) {
			i := r.Intn(len(live))
			if err := a.Free(live[i].addr); err != nil {
				t.Fatalf("op %d: Free(%#x) of live block: %v", op, live[i].addr, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		var n uint32
		switch r.Intn(10) {
		case 0:
			n = uint32(1 + r.Intn(8000)) // occasionally large
		case 1, 2:
			n = uint32(256 + r.Intn(1024))
		default:
			n = uint32(1 + r.Intn(200))
		}
		p, err := a.Malloc(n)
		if err != nil {
			t.Fatalf("op %d: Malloc(%d): %v", op, n, err)
		}
		nb := block{p, n}
		for _, b := range live {
			if overlaps(nb, b) {
				t.Fatalf("op %d: Malloc(%d)=[%#x,+%d) overlaps live [%#x,+%d)",
					op, n, nb.addr, nb.size, b.addr, b.size)
			}
		}
		live = append(live, nb)
	}
	for _, b := range live {
		if err := a.Free(b.addr); err != nil {
			t.Fatalf("final Free(%#x): %v", b.addr, err)
		}
	}
}

// testPayloadIntegrity writes a pattern into every full word of each
// live payload and verifies it just before freeing: the allocator must
// never write into a live allocation (boundary tags and links live
// outside the payload or only inside free blocks).
func testPayloadIntegrity(t *testing.T, f Factory) {
	a, m := newAlloc(f)
	r := rng.New(7)
	pattern := func(addr uint64) uint64 { return (addr * 2654435761) & 0xffffffff }
	fill := func(b block) {
		for off := uint64(0); off+mem.WordSize <= uint64(b.size); off += mem.WordSize {
			m.WriteWord(b.addr+off, pattern(b.addr+off))
		}
	}
	check := func(b block) {
		for off := uint64(0); off+mem.WordSize <= uint64(b.size); off += mem.WordSize {
			if got := m.ReadWord(b.addr + off); got != pattern(b.addr+off) {
				t.Fatalf("payload [%#x,+%d) corrupted at +%d: got %#x", b.addr, b.size, off, got)
			}
		}
	}
	var live []block
	for op := 0; op < 1500; op++ {
		if len(live) > 0 && r.Bool(0.48) {
			i := r.Intn(len(live))
			check(live[i])
			if err := a.Free(live[i].addr); err != nil {
				t.Fatalf("op %d: Free: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		n := uint32(4 + r.Intn(300))
		p, err := a.Malloc(n)
		if err != nil {
			t.Fatalf("op %d: Malloc(%d): %v", op, n, err)
		}
		b := block{p, n}
		fill(b)
		live = append(live, b)
	}
	for _, b := range live {
		check(b)
	}
}

// testBoundedChurn verifies freed memory is actually reused: a steady
// alloc/free cycle must not grow the heap without bound.
func testBoundedChurn(t *testing.T, f Factory) {
	a, m := newAlloc(f)
	warmup := func() uint64 {
		for i := 0; i < 200; i++ {
			p, err := a.Malloc(24)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		return m.Footprint()
	}
	base := warmup()
	for i := 0; i < 5000; i++ {
		p, err := a.Malloc(24)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if grew := m.Footprint() - base; grew > 64*1024 {
		t.Errorf("steady-state churn grew the heap by %d bytes (footprint %d)", grew, m.Footprint())
	}
}

func testBadFree(t *testing.T, f Factory) {
	a, _ := newAlloc(f)
	p, err := a.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []uint64{0, 1, 2, 3, 0x7, 1 << 60, p + 1} {
		if err := a.Free(bad); err == nil {
			t.Errorf("Free(%#x): expected error, got nil", bad)
		}
	}
	if err := a.Free(p); err != nil {
		t.Fatalf("Free of valid pointer: %v", err)
	}
}

// testZeroSize checks the Malloc(0) contract: a distinct, word-aligned,
// freeable block of at least one usable word per call.
func testZeroSize(t *testing.T, f Factory) {
	a, m := newAlloc(f)
	var ptrs []uint64
	for i := 0; i < 8; i++ {
		p, err := a.Malloc(0)
		if err != nil {
			t.Fatalf("Malloc(0) #%d: %v", i, err)
		}
		if p == 0 {
			t.Fatalf("Malloc(0) #%d returned null", i)
		}
		if p%mem.WordSize != 0 {
			t.Errorf("Malloc(0) #%d = %#x: not word-aligned", i, p)
		}
		for _, q := range ptrs {
			if p < q+mem.WordSize && q < p+mem.WordSize {
				t.Fatalf("Malloc(0) blocks overlap: %#x vs %#x", p, q)
			}
		}
		// The one usable word must hold app data (and survive until the
		// integrity pass below).
		m.WriteWord(p, (p*2654435761)&0xffffffff)
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if got := m.ReadWord(p); got != (p*2654435761)&0xffffffff {
			t.Errorf("zero-size payload at %#x corrupted: got %#x", p, got)
		}
		if err := a.Free(p); err != nil {
			t.Fatalf("Free of zero-size block %#x: %v", p, err)
		}
	}
}

// testDoubleFree checks that a second free of the same base is rejected
// with alloc.ErrBadFree and corrupts nothing — including when the first
// free coalesced the block into a neighbour.
func testDoubleFree(t *testing.T, f Factory) {
	a, _ := newAlloc(f)

	// Immediate double free, isolated block.
	p, err := a.Malloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatalf("first Free: %v", err)
	}
	if err := a.Free(p); err == nil {
		t.Fatal("double free accepted")
	} else if !errors.Is(err, alloc.ErrBadFree) {
		t.Errorf("double free rejected with %v, want alloc.ErrBadFree", err)
	}

	// Coalescing patterns: three adjacent-ish blocks, freed so that the
	// middle and left merge where the allocator coalesces at all; every
	// re-free must still be rejected.
	var blocks [3]uint64
	for i := range blocks {
		if blocks[i], err = a.Malloc(48); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Free(blocks[1]); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(blocks[0]); err != nil {
		t.Fatal(err)
	}
	for _, q := range blocks[:2] {
		if err := a.Free(q); err == nil {
			t.Fatalf("double free of %#x after coalescing accepted", q)
		} else if !errors.Is(err, alloc.ErrBadFree) {
			t.Errorf("double free of %#x rejected with %v, want alloc.ErrBadFree", q, err)
		}
	}
	// State must be intact: the survivor frees cleanly and churn works.
	if err := a.Free(blocks[2]); err != nil {
		t.Fatalf("Free of untouched neighbour after double frees: %v", err)
	}
	for i := 0; i < 50; i++ {
		q, err := a.Malloc(48)
		if err != nil {
			t.Fatalf("Malloc after double frees: %v", err)
		}
		if err := a.Free(q); err != nil {
			t.Fatalf("Free after double frees: %v", err)
		}
	}
}

// testLocalityHints exercises the alloc.LocalityHinter contract on
// allocators that implement it (everything else skips): hinted
// allocation upholds the full base contract — distinct non-overlapping
// word-aligned blocks, intact payloads, clean frees, exact double-free
// rejection — across arbitrary hint values, hint 0 is byte-identical
// to plain Malloc, and the hinted op stream is deterministic.
func testLocalityHints(t *testing.T, f Factory) {
	a, m := newAlloc(f)
	lh, ok := a.(alloc.LocalityHinter)
	if !ok {
		t.Skip("allocator does not implement alloc.LocalityHinter")
	}

	// Hinted churn across many buckets, with payload patterns.
	r := rng.New(99)
	type hblock struct {
		block
		pat uint64
	}
	var live []hblock
	for op := 0; op < 3000; op++ {
		if len(live) > 0 && (r.Bool(0.45) || len(live) > 200) {
			i := r.Intn(len(live))
			b := live[i]
			if got := m.ReadWord(b.addr); got != b.pat {
				t.Fatalf("op %d: payload at %#x corrupted: got %#x want %#x", op, b.addr, got, b.pat)
			}
			if err := a.Free(b.addr); err != nil {
				t.Fatalf("op %d: Free(%#x): %v", op, b.addr, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		n := uint32(1 + r.Intn(300))
		hint := uint32(r.Intn(1 << 14))
		p, err := lh.MallocLocal(n, hint)
		if err != nil {
			t.Fatalf("op %d: MallocLocal(%d, %d): %v", op, n, hint, err)
		}
		if p == 0 || p%mem.WordSize != 0 {
			t.Fatalf("op %d: MallocLocal(%d, %d) = %#x: null or unaligned", op, n, hint, p)
		}
		nb := hblock{block{addr: p, size: n}, (p * 2654435761) & 0xffffffff}
		for _, b := range live {
			if overlaps(nb.block, b.block) {
				t.Fatalf("op %d: hinted block %#x+%d overlaps live %#x+%d",
					op, nb.addr, nb.size, b.addr, b.size)
			}
		}
		m.WriteWord(p, nb.pat)
		live = append(live, nb)
	}
	for _, b := range live {
		if err := a.Free(b.addr); err != nil {
			t.Fatalf("drain Free(%#x): %v", b.addr, err)
		}
		if err := a.Free(b.addr); !errors.Is(err, alloc.ErrBadFree) {
			t.Fatalf("double free of hinted block %#x: got %v, want ErrBadFree", b.addr, err)
		}
	}

	// Hint 0 ≡ plain Malloc, and hinted streams are deterministic:
	// three fresh instances, one driven by Malloc, two by MallocLocal.
	plain, _ := newAlloc(f)
	h1, _ := newAlloc(f)
	h2, _ := newAlloc(f)
	lh1 := h1.(alloc.LocalityHinter)
	lh2 := h2.(alloc.LocalityHinter)
	for op := 0; op < 500; op++ {
		n := uint32(1 + op%277)
		p0, err0 := plain.Malloc(n)
		p1, err1 := lh1.MallocLocal(n, 0)
		if err0 != nil || err1 != nil {
			t.Fatalf("op %d: %v / %v", op, err0, err1)
		}
		if p0 != p1 {
			t.Fatalf("op %d: Malloc %#x != MallocLocal(·, 0) %#x", op, p0, p1)
		}
		hint := uint32(op >> 4)
		q1, err := lh2.MallocLocal(n, hint)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		q2, err := lh2.MallocLocal(n, hint)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if q1 == q2 {
			t.Fatalf("op %d: same address %#x returned twice", op, q1)
		}
		if err := lh2.Free(q2); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if op%3 == 0 {
			if plain.Free(p0) != nil || lh1.Free(p1) != nil {
				t.Fatalf("op %d: hint-0 frees diverged", op)
			}
		}
	}
}

// testInteriorFree checks that word-aligned pointers strictly inside a
// live block are rejected without disturbing the block.
func testInteriorFree(t *testing.T, f Factory) {
	a, _ := newAlloc(f)
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{mem.WordSize, 2 * mem.WordSize, 32} {
		if err := a.Free(p + off); err == nil {
			t.Errorf("Free(%#x): interior pointer (base+%d) accepted", p+off, off)
		} else if !errors.Is(err, alloc.ErrBadFree) {
			t.Errorf("Free(%#x) rejected with %v, want alloc.ErrBadFree", p+off, err)
		}
	}
	if err := a.Free(p); err != nil {
		t.Fatalf("Free of base after interior-free attempts: %v", err)
	}
}

// testOutOfMemory exhausts a memory-capped allocator: the failure must
// surface as an error (never a panic), and the allocator must remain
// usable — frees succeed and create room for further allocations.
func testOutOfMemory(t *testing.T, f Factory) {
	m := mem.New(trace.Discard, &cost.Meter{})
	m.DefaultRegionLimit = 256 * 1024
	a := f(m)
	var live []uint64
	var oom bool
	for i := 0; i < 100000; i++ {
		p, err := a.Malloc(64)
		if err != nil {
			if !errors.Is(err, mem.ErrOutOfMemory) && !errors.Is(err, alloc.ErrTooLarge) {
				t.Errorf("exhaustion surfaced with the wrong error class: %v", err)
			}
			oom = true
			break
		}
		live = append(live, p)
	}
	if !oom {
		t.Fatal("allocator never reported out-of-memory within the region cap")
	}
	if len(live) == 0 {
		t.Fatal("no allocations succeeded before exhaustion")
	}
	// Recovery: free everything, then allocate again.
	for _, p := range live {
		if err := a.Free(p); err != nil {
			t.Fatalf("Free(%#x) after OOM: %v", p, err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, err := a.Malloc(64); err != nil {
			t.Fatalf("allocation %d after recovery: %v", i, err)
		}
	}
}

// testShadowOracle runs a random churn through the shadow heap auditor
// (internal/alloc/shadow) with a tight audit cadence: the oracle's
// independent live-set model and the allocator must agree on every
// operation, including deliberate double frees and interior pointers the
// allocator is expected to reject.
func testShadowOracle(t *testing.T, f Factory, o Options) {
	m := mem.New(trace.Discard, &cost.Meter{})
	s := shadow.Wrap(f(m), m, shadow.Options{AuditEvery: 512})
	r := rng.New(31)
	var live []uint64
	for op := 0; op < 4000; op++ {
		if len(live) > 0 && (r.Bool(0.45) || len(live) > 400) {
			i := r.Intn(len(live))
			if err := s.Free(live[i]); err != nil {
				t.Fatalf("op %d: Free(%#x) of live block: %v", op, live[i], err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		var n uint32
		switch r.Intn(8) {
		case 0:
			n = 0 // Malloc(0) contract path
		case 1:
			n = o.clamp(uint32(1024 + r.Intn(8192)))
		default:
			n = uint32(1 + r.Intn(256))
		}
		p, err := s.Malloc(n)
		if err != nil {
			t.Fatalf("op %d: Malloc(%d): %v", op, n, err)
		}
		live = append(live, p)
	}
	// Adversarial frees. The allocator must reject them; the oracle
	// flags a violation only if one is *accepted*.
	if len(live) > 2 {
		p := live[0]
		live = live[1:]
		_ = s.Free(p)                      // valid
		_ = s.Free(p)                      // immediate double free
		_ = s.Free(live[0] + mem.WordSize) // interior pointer
	}
	for _, p := range live {
		if err := s.Free(p); err != nil {
			t.Fatalf("final Free(%#x): %v", p, err)
		}
	}
	s.Audit()
	if n := s.ViolationCount(); n != 0 {
		for _, v := range s.Violations() {
			t.Errorf("%s", v.String())
		}
		t.Fatalf("shadow oracle recorded %d violations", n)
	}
	if s.LiveBlocks() != 0 {
		t.Errorf("oracle live set not empty at exit: %d blocks", s.LiveBlocks())
	}
}

// testSawtooth models phase behaviour: repeatedly build up a structure
// of mixed sizes and tear it all down. Footprint must reach a steady
// state rather than growing per phase.
func testSawtooth(t *testing.T, f Factory) {
	a, m := newAlloc(f)
	r := rng.New(13)
	var peak uint64
	var phase5 uint64
	for phase := 0; phase < 12; phase++ {
		var live []uint64
		for i := 0; i < 300; i++ {
			n := uint32(8 + r.Intn(120))
			p, err := a.Malloc(n)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		}
		for _, p := range live {
			if err := a.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		if fp := m.Footprint(); fp > peak {
			peak = fp
		}
		if phase == 5 {
			phase5 = m.Footprint()
		}
	}
	if phase5 == 0 {
		t.Fatal("no footprint recorded")
	}
	if float64(peak) > float64(phase5)*1.5 {
		t.Errorf("sawtooth churn kept growing the heap: %d at phase 5, %d peak", phase5, peak)
	}
}

// testLargeObjects stresses the multi-page paths: allocations from 2 KB
// to 256 KB interleaved with small ones, all disjoint, all freeable.
func testLargeObjects(t *testing.T, f Factory, o Options) {
	a, _ := newAlloc(f)
	r := rng.New(21)
	var live []block
	for op := 0; op < 300; op++ {
		if len(live) > 0 && r.Bool(0.4) {
			i := r.Intn(len(live))
			if err := a.Free(live[i].addr); err != nil {
				t.Fatalf("op %d: Free: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		var n uint32
		if r.Bool(0.5) {
			n = o.clamp(uint32(2048 + r.Intn(256*1024)))
		} else {
			n = uint32(1 + r.Intn(64))
		}
		p, err := a.Malloc(n)
		if err != nil {
			t.Fatalf("op %d: Malloc(%d): %v", op, n, err)
		}
		nb := block{p, n}
		for _, b := range live {
			if overlaps(nb, b) {
				t.Fatalf("op %d: Malloc(%d)=[%#x,+%d) overlaps [%#x,+%d)",
					op, n, nb.addr, nb.size, b.addr, b.size)
			}
		}
		live = append(live, nb)
	}
	for _, b := range live {
		if err := a.Free(b.addr); err != nil {
			t.Fatal(err)
		}
	}
}

// testQuickRandomOps drives property-based random operation sequences
// through testing/quick: for any op sequence, allocations are disjoint
// and frees of live pointers succeed.
func testQuickRandomOps(t *testing.T, f Factory) {
	prop := func(seed uint64, opsRaw []byte) bool {
		a, _ := newAlloc(f)
		r := rng.New(seed)
		var live []block
		for _, raw := range opsRaw {
			if raw%2 == 0 && len(live) > 0 {
				i := r.Intn(len(live))
				if err := a.Free(live[i].addr); err != nil {
					t.Logf("Free of live block failed: %v", err)
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			n := uint32(raw)/2 + 1
			p, err := a.Malloc(n)
			if err != nil {
				t.Logf("Malloc(%d) failed: %v", n, err)
				return false
			}
			nb := block{p, n}
			for _, b := range live {
				if overlaps(nb, b) {
					t.Logf("overlap: [%#x,+%d) vs [%#x,+%d)", nb.addr, nb.size, b.addr, b.size)
					return false
				}
			}
			live = append(live, nb)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// testDeterminism verifies that an identical op sequence yields
// identical addresses, instruction counts and footprint on two fresh
// instances: the whole reproduction depends on runs being replayable.
func testDeterminism(t *testing.T, f Factory) {
	runOnce := func() (string, uint64, uint64) {
		meter := &cost.Meter{}
		m := mem.New(trace.Discard, meter)
		a := f(m)
		r := rng.New(99)
		var live []uint64
		sig := ""
		for op := 0; op < 600; op++ {
			if len(live) > 0 && r.Bool(0.4) {
				i := r.Intn(len(live))
				if err := a.Free(live[i]); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			n := uint32(1 + r.Intn(100))
			p, err := a.Malloc(n)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
			if op%37 == 0 {
				sig += fmt.Sprintf("%x,", p)
			}
		}
		return sig, meter.Total(), m.Footprint()
	}
	sig1, instr1, fp1 := runOnce()
	sig2, instr2, fp2 := runOnce()
	if sig1 != sig2 || instr1 != instr2 || fp1 != fp2 {
		t.Errorf("nondeterministic run: (%q,%d,%d) vs (%q,%d,%d)", sig1, instr1, fp1, sig2, instr2, fp2)
	}
}
