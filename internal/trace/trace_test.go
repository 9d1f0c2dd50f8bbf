package trace

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("Kind strings: %q %q", Read, Write)
	}
	if Kind(9).String() != "unknown" {
		t.Errorf("unexpected: %q", Kind(9))
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Ref(Ref{Addr: 0, Size: 4, Kind: Read})
	c.Ref(Ref{Addr: 8, Size: 8, Kind: Write})
	c.Ref(Ref{Addr: 16, Size: 4, Kind: Read})
	if c.Reads != 2 || c.Writes != 1 {
		t.Errorf("reads=%d writes=%d", c.Reads, c.Writes)
	}
	if c.Total() != 3 {
		t.Errorf("total=%d", c.Total())
	}
	if c.BytesRead != 8 || c.BytesWrote != 8 || c.Bytes() != 16 {
		t.Errorf("bytes: %d/%d", c.BytesRead, c.BytesWrote)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Error("reset failed")
	}
}

func TestTeeFansOut(t *testing.T) {
	var a, b Counter
	tee := NewTee(&a, &b)
	tee.Ref(Ref{Size: 4})
	tee.Ref(Ref{Size: 4, Kind: Write})
	if a.Total() != 2 || b.Total() != 2 {
		t.Errorf("tee did not fan out: %d %d", a.Total(), b.Total())
	}
}

func TestNewTeeFlattens(t *testing.T) {
	var a, b, c Counter
	inner := NewTee(&a, &b)
	outer := NewTee(inner, &c, nil, Discard)
	tee, ok := outer.(Tee)
	if !ok {
		t.Fatalf("expected Tee, got %T", outer)
	}
	if len(tee) != 3 {
		t.Errorf("expected 3 flattened sinks, got %d", len(tee))
	}
	if got := NewTee(); got != Discard {
		t.Errorf("empty tee should be Discard")
	}
	if got := NewTee(&a); got != Sink(&a) {
		t.Errorf("single-sink tee should collapse")
	}
}

// TestNewTeeNested: hand-built Tees nested inside Tees flatten
// recursively, including Discard and nil entries at any depth.
func TestNewTeeNested(t *testing.T) {
	var a, b, c, d Counter
	deep := Tee{&a, Tee{&b, Tee{&c, Discard}, nil}}
	out := NewTee(deep, &d)
	tee, ok := out.(Tee)
	if !ok {
		t.Fatalf("expected Tee, got %T", out)
	}
	if len(tee) != 4 {
		t.Fatalf("expected 4 flattened sinks, got %d: %#v", len(tee), tee)
	}
	out.Ref(Ref{Size: 4})
	for i, cnt := range []*Counter{&a, &b, &c, &d} {
		if cnt.Total() != 1 {
			t.Errorf("sink %d saw %d refs, want 1", i, cnt.Total())
		}
	}
}

// TestNewTeeAllDiscard: an input of only Discard (and nested Discard)
// collapses to Discard itself, not an empty Tee.
func TestNewTeeAllDiscard(t *testing.T) {
	if got := NewTee(Discard, Discard); got != Discard {
		t.Errorf("all-Discard tee = %T, want Discard", got)
	}
	if got := NewTee(Tee{Discard}, nil, Tee{Tee{Discard}}); got != Discard {
		t.Errorf("nested all-Discard tee = %T, want Discard", got)
	}
	if got := NewTee(nil, nil); got != Discard {
		t.Errorf("all-nil tee = %T, want Discard", got)
	}
}

// TestNewTeeSingleUnwrap: a single surviving sink is returned directly
// even when buried under nesting and noise.
func TestNewTeeSingleUnwrap(t *testing.T) {
	var a Counter
	if got := NewTee(Tee{Tee{&a}}, Discard, nil); got != Sink(&a) {
		t.Errorf("buried single sink = %T, want *Counter directly", got)
	}
	if got := NewTee(Discard, &a); got != Sink(&a) {
		t.Errorf("single sink + Discard = %T, want *Counter directly", got)
	}
}

func TestFilterAndRange(t *testing.T) {
	var c Counter
	f := &Filter{Keep: func(r Ref) bool { return r.Addr >= 100 && r.Addr < 200 }, Next: &c}
	f.Ref(Ref{Addr: 50, Size: 4})
	f.Ref(Ref{Addr: 100, Size: 4})
	f.Ref(Ref{Addr: 199, Size: 4})
	f.Ref(Ref{Addr: 200, Size: 4})
	if c.Total() != 2 {
		t.Errorf("range filter passed %d refs, want 2", c.Total())
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	refs := []Ref{{1, 4, Read, 0}, {2, 8, Write, 0}}
	for _, ref := range refs {
		r.Ref(ref)
	}
	if len(r.Refs) != 2 || r.Refs[0] != refs[0] || r.Refs[1] != refs[1] {
		t.Errorf("recorded %v", r.Refs)
	}
	r.Reset()
	if len(r.Refs) != 0 {
		t.Error("reset failed")
	}
}

// TestQuickCounterTotals: total always equals reads+writes and bytes
// accumulate exactly, for arbitrary ref sequences.
func TestQuickCounterTotals(t *testing.T) {
	prop := func(addrs []uint64, sizes []uint16, kinds []bool) bool {
		var c Counter
		n := len(addrs)
		if len(sizes) < n {
			n = len(sizes)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		var bytes uint64
		for i := 0; i < n; i++ {
			k := Read
			if kinds[i] {
				k = Write
			}
			c.Ref(Ref{Addr: addrs[i], Size: uint32(sizes[i]), Kind: k})
			bytes += uint64(sizes[i])
		}
		return c.Total() == uint64(n) && c.Bytes() == bytes
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestSplit: SplitBlocks flattens tees, hands every BlockSink leaf to
// the first result in graph order, returns a single leftover as
// itself, recombines several into a Tee, yields nothing for a graph of
// only Discard, and always leaves the middle result nil.
func TestSplit(t *testing.T) {
	var c, c2 Counter      // BlockSinks
	var rec, rec2 Recorder // plain Sinks
	keepAll := &Filter{Keep: func(Ref) bool { return true }, Next: &c}

	// All-block graph, nested tees: no remainder.
	blocks, batch, rest := SplitBlocks(NewTee(Tee{&c, Tee{&c2}}, Discard))
	if len(blocks) != 2 || blocks[0] != BlockSink(&c) || blocks[1] != BlockSink(&c2) || batch != nil || rest != nil {
		t.Errorf("all-block split: blocks %v, batch %v, rest %v", blocks, batch, rest)
	}

	// Mixed graph, nested tee: the single leftover comes back as itself.
	blocks, batch, rest = SplitBlocks(NewTee(&c, Tee{&rec}))
	if len(blocks) != 1 || batch != nil || rest != Sink(&rec) {
		t.Errorf("mixed split: %d block sinks, batch %v, rest %T", len(blocks), batch, rest)
	}

	// Several leftovers recombine into a Tee, in graph order.
	blocks, batch, rest = SplitBlocks(NewTee(&rec, &c, Tee{&rec2, keepAll}))
	tee, ok := rest.(Tee)
	if len(blocks) != 1 || batch != nil || !ok || len(tee) != 3 ||
		tee[0] != Sink(&rec) || tee[1] != Sink(&rec2) || tee[2] != Sink(keepAll) {
		t.Errorf("leftover split: %d block sinks, batch %v, rest %T %v, want a 3-element Tee", len(blocks), batch, rest, rest)
	}

	// Discard-only graphs: nothing at all.
	for _, g := range []Sink{Discard, Tee{Discard, Tee{Discard}}} {
		blocks, batch, rest = SplitBlocks(g)
		if len(blocks) != 0 || batch != nil || rest != nil {
			t.Errorf("discard split of %v: blocks %v, batch %v, rest %v", g, blocks, batch, rest)
		}
	}
}
