package mem

import (
	"testing"
	"testing/quick"

	"mallocsim/internal/cost"
	"mallocsim/internal/trace"
)

func TestRegionBasics(t *testing.T) {
	m := New(nil, nil)
	r := m.NewRegion("heap", 0)
	if r.Name() != "heap" {
		t.Errorf("name %q", r.Name())
	}
	if r.Base()%PageSize != 0 {
		t.Errorf("region base %#x not page aligned", r.Base())
	}
	if r.Size() != RegionReserve {
		t.Errorf("fresh region size = %d, want reserve %d", r.Size(), RegionReserve)
	}
	addr, err := r.Sbrk(100)
	if err != nil {
		t.Fatal(err)
	}
	if addr != r.Base()+RegionReserve {
		t.Errorf("first sbrk at %#x, want base+reserve", addr)
	}
	if r.Size() != RegionReserve+AlignUp(100, WordSize) {
		t.Errorf("size %d", r.Size())
	}
	if !r.Contains(addr) || r.Contains(r.Brk()) {
		t.Error("Contains wrong at boundaries")
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	m := New(nil, nil)
	var regions []*Region
	for i := 0; i < 8; i++ {
		r := m.NewRegion("r", 0)
		if _, err := r.Sbrk(1 << 20); err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	for i, a := range regions {
		for j, b := range regions {
			if i == j {
				continue
			}
			if a.Base() < b.Brk() && b.Base() < a.Brk() {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestRegionAt(t *testing.T) {
	m := New(nil, nil)
	var regions []*Region
	for i := 0; i < 4; i++ {
		r := m.NewRegion("r", 0)
		if _, err := r.Sbrk(1024); err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	for i, r := range regions {
		if got := m.RegionAt(r.Base()); got != r {
			t.Errorf("region %d: RegionAt(base) = %v", i, got)
		}
		if got := m.RegionAt(r.Brk() - 1); got != r {
			t.Errorf("region %d: RegionAt(brk-1) = %v", i, got)
		}
		if got := m.RegionAt(r.Brk()); got == r {
			t.Errorf("region %d: RegionAt(brk) should not match", i)
		}
	}
	if got := m.RegionAt(0); got != nil {
		t.Errorf("RegionAt(0) = %v, want nil", got)
	}
	if got := m.RegionAt(1 << 62); got != nil {
		t.Errorf("RegionAt(huge) = %v, want nil", got)
	}
	// Below the first region's base (inside its span slot but before the
	// reserve) nothing matches either.
	if got := m.RegionAt(regions[0].Base() - 1); got != nil {
		t.Errorf("RegionAt(base-1) = %v, want nil", got)
	}
}

// regionScan is RegionIndex's oracle: the first region containing addr
// by linear scan.
func regionScan(m *Memory, addr uint64) int {
	for i, r := range m.Regions() {
		if r.Contains(addr) {
			return i
		}
	}
	return -1
}

func TestRegionIndex(t *testing.T) {
	m := New(nil, nil)
	for i := 0; i < 5; i++ {
		if _, err := m.NewRegion("r", 0).Sbrk(1024); err != nil {
			t.Fatal(err)
		}
	}
	// Region 1 grows past its span's end into span 3, which region 2's
	// base also lies in: only the past-span fallback finds it there.
	r1 := m.Regions()[1]
	spill := (r1.Base()/RegionSpan + 1) * RegionSpan
	if _, err := r1.Sbrk(spill + 64 - r1.Brk()); err != nil {
		t.Fatal(err)
	}
	if spill/RegionSpan != m.Regions()[2].Base()/RegionSpan {
		t.Fatalf("fixture: region 1 spills into span %d, region 2 starts in span %d",
			spill/RegionSpan, m.Regions()[2].Base()/RegionSpan)
	}
	for i, r := range m.Regions() {
		for _, c := range []struct {
			name string
			addr uint64
			want int
		}{
			{"base", r.Base(), i},
			{"brk-1", r.Brk() - 1, i},
			{"brk", r.Brk(), -1},
			{"base-1", r.Base() - 1, -1},
		} {
			if got := m.RegionIndex(c.addr); got != c.want {
				t.Errorf("region %d: RegionIndex(%s) = %d, want %d", i, c.name, got, c.want)
			}
		}
	}
	for _, c := range []struct {
		name string
		addr uint64
		want int
	}{
		{"past-span fallback", spill + 8, 1},
		{"past-span brk", r1.Brk(), -1},
		{"zero", 0, -1},
		{"span 0", RegionSpan - 1, -1},
		{"beyond the last region", 1 << 62, -1},
		{"top of the address space", ^uint64(0), -1},
	} {
		if got := m.RegionIndex(c.addr); got != c.want {
			t.Errorf("RegionIndex(%s = %#x) = %d, want %d", c.name, c.addr, got, c.want)
		}
		if got, want := m.RegionAt(c.addr), m.Regions(); (got == nil) != (c.want < 0) || (got != nil && got != want[c.want]) {
			t.Errorf("RegionAt(%s) = %v, disagrees with RegionIndex", c.name, got)
		}
	}
	// Agreement with the linear scan across every span the layout uses.
	for span := uint64(0); span <= 7; span++ {
		for _, off := range []uint64{0, 8, 37 * PageSize, 2 * 37 * PageSize, 4096 + 12, 128 + 37*PageSize} {
			addr := span*RegionSpan + off
			if got, want := m.RegionIndex(addr), regionScan(m, addr); got != want {
				t.Errorf("RegionIndex(%#x) = %d, scan says %d", addr, got, want)
			}
		}
	}
}

// TestRegionIndexPastStagger: beyond staggerRegions regions the stagger
// carries a base into a later span than i+1, where the two span
// candidates miss it, and RegionIndex must stay exact.
func TestRegionIndexPastStagger(t *testing.T) {
	m := New(nil, nil)
	for i := uint64(0); i <= staggerRegions; i++ {
		m.NewRegion("r", PageSize)
	}
	last := m.NewRegion("last", 0)
	i := len(m.Regions()) - 1
	if span := last.Base() / RegionSpan; span != uint64(i)+2 {
		t.Fatalf("fixture: region %d's base lies in span %d, want %d", i, span, i+2)
	}
	// Grow it into span i+3: neither candidate span-1 nor span-2 is i.
	spill := (last.Base()/RegionSpan + 1) * RegionSpan
	if _, err := last.Sbrk(spill + 64 - last.Brk()); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{last.Base(), spill + 8} {
		if got := m.RegionIndex(addr); got != i {
			t.Errorf("RegionIndex(%#x) = %d, want %d", addr, got, i)
		}
	}
	if got := m.RegionIndex(m.Regions()[7].Base()); got != 7 {
		t.Errorf("RegionIndex(region 7 base) = %d past the stagger limit", got)
	}
}

func TestRegionLimit(t *testing.T) {
	m := New(nil, nil)
	r := m.NewRegion("small", 4096)
	if _, err := r.Sbrk(8192); err == nil {
		t.Error("expected out-of-memory")
	}
	if _, err := r.Sbrk(2048); err != nil {
		t.Errorf("within limit: %v", err)
	}
}

func TestWordReadWriteRoundTrip(t *testing.T) {
	m := New(nil, nil)
	r := m.NewRegion("heap", 0)
	base, _ := r.Sbrk(1 << 16)
	vals := []uint64{0, 1, 0xdeadbeef, 0xffffffff}
	for i, v := range vals {
		m.WriteWord(base+uint64(i)*4, v)
	}
	for i, v := range vals {
		if got := m.ReadWord(base + uint64(i)*4); got != v {
			t.Errorf("word %d: got %#x want %#x", i, got, v)
		}
	}
	// Fresh memory reads as zero.
	if got := m.ReadWord(base + 4096); got != 0 {
		t.Errorf("fresh word = %#x", got)
	}
}

func TestAccessEmitsRefsAndCharges(t *testing.T) {
	var rec trace.Recorder
	meter := &cost.Meter{}
	m := New(&rec, meter)
	r := m.NewRegion("heap", 0)
	base, _ := r.Sbrk(64)
	before := meter.Total()
	m.WriteWord(base, 42)
	v := m.ReadWord(base)
	if v != 42 {
		t.Fatal("round trip failed")
	}
	if len(rec.Refs) != 2 {
		t.Fatalf("refs = %d, want 2", len(rec.Refs))
	}
	if rec.Refs[0].Kind != trace.Write || rec.Refs[1].Kind != trace.Read {
		t.Error("ref kinds wrong")
	}
	if rec.Refs[0].Addr != base || rec.Refs[0].Size != WordSize {
		t.Errorf("ref = %+v", rec.Refs[0])
	}
	if meter.Total()-before != 2 {
		t.Errorf("charged %d instructions, want 2", meter.Total()-before)
	}
}

func TestTouch(t *testing.T) {
	var rec trace.Recorder
	meter := &cost.Meter{}
	m := New(&rec, meter)
	m.Touch(12345, 8, trace.Write)
	if len(rec.Refs) != 1 || rec.Refs[0].Size != 8 || rec.Refs[0].Addr != 12345 {
		t.Errorf("touch ref %+v", rec.Refs)
	}
	if meter.Total() != 1 {
		t.Errorf("touch charged %d", meter.Total())
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New(nil, nil)
	r := m.NewRegion("heap", 0)
	base, _ := r.Sbrk(64)
	mustPanic(t, "unaligned read", func() { m.ReadWord(base + 1) })
	mustPanic(t, "unaligned write", func() { m.WriteWord(base+2, 0) })
	mustPanic(t, "oversize value", func() { m.WriteWord(base, 1<<32) })
	mustPanic(t, "out of range", func() { m.ReadWord(base + 1<<20) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestEncodeDecodePtr(t *testing.T) {
	m := New(nil, nil)
	r := m.NewRegion("heap", 0)
	addr, _ := r.Sbrk(1024)
	w := r.EncodePtr(addr)
	if w == 0 {
		t.Fatal("valid address encoded as null")
	}
	if got := r.DecodePtr(w); got != addr {
		t.Errorf("decode(encode(%#x)) = %#x", addr, got)
	}
	if r.EncodePtr(0) != 0 || r.DecodePtr(0) != 0 {
		t.Error("null must round-trip as 0")
	}
	other := m.NewRegion("other", 0)
	oaddr, _ := other.Sbrk(16)
	mustPanic(t, "cross-region encode", func() { r.EncodePtr(oaddr) })
}

func TestFootprintAndPages(t *testing.T) {
	m := New(nil, nil)
	a := m.NewRegion("a", 0)
	b := m.NewRegion("b", 0)
	a.Sbrk(1000)
	b.Sbrk(2000)
	want := uint64(2*RegionReserve) + AlignUp(1000, WordSize) + AlignUp(2000, WordSize)
	if m.Footprint() != want {
		t.Errorf("footprint %d, want %d", m.Footprint(), want)
	}
	if m.TouchedPages() != 0 {
		t.Error("no pages should be materialized before access")
	}
	addr, _ := a.Sbrk(PageSize * 3)
	m.WriteWord(addr, 1)
	m.WriteWord(addr+2*PageSize, 1)
	if m.TouchedPages() != 2 {
		t.Errorf("touched pages = %d, want 2", m.TouchedPages())
	}
}

// TestTouchedPagesAcrossSpans: PeekWord of a never-written word reads 0
// and materializes no page; TouchedPages counts the distinct pages that
// WriteWord and ReadWord touched, across two regions and across the
// span boundary of a region grown past its first span; and every word
// written there reads back.
func TestTouchedPagesAcrossSpans(t *testing.T) {
	m := New(nil, nil)
	a := m.NewRegion("a", 0)
	b := m.NewRegion("b", 0)
	aBase, err := a.Sbrk(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	edge := (b.Base()/RegionSpan + 1) * RegionSpan // end of b's first span
	if _, err := b.Sbrk(edge - b.Brk() + 2*PageSize); err != nil {
		t.Fatal(err)
	}
	addrs := []uint64{aBase, aBase + WordSize, b.Base() + RegionReserve, edge - WordSize, edge, edge + WordSize}
	const pages = 4 // a's page, b's first page, and one page on each side of the edge
	for _, addr := range addrs {
		if v := m.PeekWord(addr); v != 0 {
			t.Fatalf("PeekWord(%#x) = %d before any write", addr, v)
		}
	}
	if n := m.TouchedPages(); n != 0 {
		t.Fatalf("PeekWord materialized %d pages", n)
	}
	for i, addr := range addrs {
		m.WriteWord(addr, uint64(i+1))
	}
	if n := m.TouchedPages(); n != pages {
		t.Fatalf("touched pages = %d after the writes, want %d", n, pages)
	}
	for i, addr := range addrs {
		if got := m.ReadWord(addr); got != uint64(i+1) {
			t.Errorf("ReadWord(%#x) = %d, want %d", addr, got, i+1)
		}
		if got := m.PeekWord(addr); got != uint64(i+1) {
			t.Errorf("PeekWord(%#x) = %d, want %d", addr, got, i+1)
		}
	}
	if v := m.PeekWord(aBase + 2*WordSize); v != 0 {
		t.Errorf("never-written word in a touched page reads %d", v)
	}
	if v := m.PeekWord(edge + PageSize); v != 0 {
		t.Errorf("never-written word in an untouched page reads %d", v)
	}
	if n := m.TouchedPages(); n != pages {
		t.Errorf("touched pages = %d after the reads, want %d", n, pages)
	}
}

// Property: words written at distinct aligned addresses are all
// independently recoverable (no aliasing between pages or regions).
func TestQuickWordIndependence(t *testing.T) {
	prop := func(offsets []uint16, vals []uint32) bool {
		n := len(offsets)
		if len(vals) < n {
			n = len(vals)
		}
		m := New(nil, nil)
		r := m.NewRegion("heap", 0)
		base, _ := r.Sbrk(1 << 20)
		want := map[uint64]uint64{}
		for i := 0; i < n; i++ {
			addr := base + uint64(offsets[i])*4
			want[addr] = uint64(vals[i])
			m.WriteWord(addr, uint64(vals[i]))
		}
		for addr, v := range want {
			if m.ReadWord(addr) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAlignUp(t *testing.T) {
	cases := []struct{ n, a, want uint64 }{
		{0, 4, 0}, {1, 4, 4}, {4, 4, 4}, {5, 4, 8}, {4095, 4096, 4096}, {4097, 4096, 8192},
	}
	for _, c := range cases {
		if got := AlignUp(c.n, c.a); got != c.want {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", c.n, c.a, got, c.want)
		}
	}
}

// TestBatchingDeliversIdenticalStream checks that a batching Memory
// delivers the same references, in the same order, as an unbatched one
// — to batch sinks at flush boundaries and to plain sinks immediately.
func TestBatchingDeliversIdenticalStream(t *testing.T) {
	run := func(batch int) (counted trace.Counter, recorded []trace.Ref) {
		var c trace.Counter
		rec := &trace.Recorder{} // plain Sink: stays on the direct path
		m := New(trace.NewTee(&c, rec), nil)
		if batch != 0 {
			m.SetBatching(batch)
		}
		r := m.NewRegion("r", 1<<20)
		a, err := r.Sbrk(256)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 40; i++ {
			m.WriteWord(a+i*WordSize, i)
			if m.ReadWord(a+i*WordSize) != i {
				t.Fatal("round trip")
			}
		}
		m.Touch(a, 64, trace.Read)
		m.Flush()
		return c, rec.Refs
	}
	wantC, wantRefs := run(0)
	for _, size := range []int{1, 7, 256} {
		gotC, gotRefs := run(size)
		if gotC != wantC {
			t.Errorf("batch=%d: counter %+v != %+v", size, gotC, wantC)
		}
		if len(gotRefs) != len(wantRefs) {
			t.Fatalf("batch=%d: %d refs != %d", size, len(gotRefs), len(wantRefs))
		}
		for i := range gotRefs {
			if gotRefs[i] != wantRefs[i] {
				t.Errorf("batch=%d: ref %d differs: %+v vs %+v", size, i, gotRefs[i], wantRefs[i])
			}
		}
	}
}

// TestBatchingFlushBoundaries checks buffered delivery semantics: batch
// sinks see nothing until a flush (buffer fill, explicit Flush, SetSink
// or SetBatching), plain sinks see everything immediately.
func TestBatchingFlushBoundaries(t *testing.T) {
	var c trace.Counter
	rec := &trace.Recorder{}
	m := New(trace.NewTee(&c, rec), nil)
	m.SetBatching(8)
	r := m.NewRegion("r", 1<<20)
	a, _ := r.Sbrk(256)

	for i := uint64(0); i < 5; i++ {
		m.WriteWord(a+i*WordSize, i)
	}
	if c.Total() != 0 {
		t.Errorf("batch sink saw %d refs before flush", c.Total())
	}
	if len(rec.Refs) != 5 {
		t.Errorf("direct sink saw %d refs, want 5 immediately", len(rec.Refs))
	}
	m.Flush()
	if c.Total() != 5 {
		t.Errorf("after flush: %d refs, want 5", c.Total())
	}
	m.Flush() // idempotent on empty buffer
	if c.Total() != 5 {
		t.Error("empty flush re-delivered")
	}

	// Buffer fill auto-flushes.
	for i := uint64(0); i < 8; i++ {
		m.WriteWord(a+i*WordSize, i)
	}
	if c.Total() != 13 {
		t.Errorf("auto-flush: %d, want 13", c.Total())
	}

	// SetSink flushes pending refs to the old sinks first.
	m.WriteWord(a, 1)
	var c2 trace.Counter
	m.SetSink(&c2)
	if c.Total() != 14 || c2.Total() != 0 {
		t.Errorf("SetSink flush: old=%d new=%d", c.Total(), c2.Total())
	}
	// ...and the new sink inherits batching.
	m.WriteWord(a, 2)
	if c2.Total() != 0 {
		t.Error("new sink not batched")
	}
	m.Flush()
	if c2.Total() != 1 {
		t.Errorf("new sink after flush: %d", c2.Total())
	}

	// SetBatching(-1) disables and restores synchronous delivery.
	m.SetBatching(-1)
	m.WriteWord(a, 3)
	if c2.Total() != 2 {
		t.Errorf("unbatched delivery: %d, want 2", c2.Total())
	}
}

// TestBatchingNoBatchersFallsBack: with only plain sinks the buffer is
// disabled entirely and delivery is synchronous.
func TestBatchingNoBatchersFallsBack(t *testing.T) {
	rec := &trace.Recorder{}
	m := New(rec, nil)
	m.SetBatching(0)
	r := m.NewRegion("r", 1<<20)
	a, _ := r.Sbrk(64)
	m.WriteWord(a, 42)
	if len(rec.Refs) != 1 {
		t.Errorf("plain-only pipeline: %d refs, want 1 synchronously", len(rec.Refs))
	}
}

func TestGeometryHelpers(t *testing.T) {
	cases := []struct {
		addr                               uint64
		word, line, lineOff, page, pageOff uint64
	}{
		{0, 0, 0, 0, 0, 0},
		{3, 0, 0, 3, 0, 3},
		{WordSize, 1, 0, WordSize, 0, WordSize},
		{LineSize, LineSize / WordSize, 1, 0, 0, LineSize},
		{LineSize + 5, LineSize/WordSize + 1, 1, 5, 0, LineSize + 5},
		{PageSize, PageSize / WordSize, PageSize / LineSize, 0, 1, 0},
		{3*PageSize + 2*LineSize + 7, (3*PageSize + 2*LineSize + 7) / WordSize, (3*PageSize + 2*LineSize + 7) / LineSize, 7, 3, 2*LineSize + 7},
	}
	for _, c := range cases {
		if got := WordOf(c.addr); got != c.word {
			t.Errorf("WordOf(%d) = %d, want %d", c.addr, got, c.word)
		}
		if got := LineOf(c.addr); got != c.line {
			t.Errorf("LineOf(%d) = %d, want %d", c.addr, got, c.line)
		}
		if got := LineOffset(c.addr); got != c.lineOff {
			t.Errorf("LineOffset(%d) = %d, want %d", c.addr, got, c.lineOff)
		}
		if got := PageOf(c.addr); got != c.page {
			t.Errorf("PageOf(%d) = %d, want %d", c.addr, got, c.page)
		}
		if got := PageOffset(c.addr); got != c.pageOff {
			t.Errorf("PageOffset(%d) = %d, want %d", c.addr, got, c.pageOff)
		}
	}

	// The helpers must agree with the recomposition identity.
	if err := quick.Check(func(addr uint64) bool {
		return LineOf(addr)*LineSize+LineOffset(addr) == addr &&
			PageOf(addr)*PageSize+PageOffset(addr) == addr &&
			WordOf(addr)*WordSize+addr%WordSize == addr
	}, nil); err != nil {
		t.Error(err)
	}
}
