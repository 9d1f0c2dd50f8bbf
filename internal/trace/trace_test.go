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
	f := RangeFilter(100, 200, &c)
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

func TestSinkFunc(t *testing.T) {
	n := 0
	s := SinkFunc(func(Ref) { n++ })
	s.Ref(Ref{})
	if n != 1 {
		t.Error("SinkFunc not invoked")
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

func TestTeeRefsBatch(t *testing.T) {
	var c1, c2 Counter
	var plain Recorder // plain Sink: receives per-ref fan-out
	tee := Tee{&c1, &plain, &c2}
	batch := []Ref{
		{Addr: 0, Size: 4},
		{Addr: 8, Size: 4, Kind: Write},
		{Addr: 16, Size: 8},
	}
	tee.Refs(batch)
	if c1.Total() != 3 || c2.Total() != 3 || len(plain.Refs) != 3 {
		t.Errorf("batch fan-out: c1=%d c2=%d plain=%d", c1.Total(), c2.Total(), len(plain.Refs))
	}
	if c1.Writes != 1 || c1.BytesRead != 12 {
		t.Errorf("counter state: %+v", c1)
	}
}

func TestCounterBatchMatchesSingle(t *testing.T) {
	refs := []Ref{{Addr: 0, Size: 4}, {Addr: 4, Size: 8, Kind: Write}, {Addr: 32, Size: 0}}
	var a, b Counter
	for _, r := range refs {
		a.Ref(r)
	}
	b.Refs(refs)
	if a != b {
		t.Errorf("batch %+v != single %+v", b, a)
	}
}

func TestFilterBatch(t *testing.T) {
	var out Counter
	f := &Filter{Keep: func(r Ref) bool { return r.Addr < 100 }, Next: &out}
	f.Refs([]Ref{{Addr: 1, Size: 4}, {Addr: 200, Size: 4}, {Addr: 99, Size: 4}})
	if out.Total() != 2 {
		t.Errorf("filtered batch total = %d, want 2", out.Total())
	}
}

func TestSplit(t *testing.T) {
	var c Counter     // BatchSink
	var rec Recorder  // plain Sink (Refs is a field)
	var rec2 Recorder // second plain sink: remainder becomes a Tee
	fn := SinkFunc(func(Ref) {})

	// All-batch graph: no remainder.
	batch, rest := Split(NewTee(&c, Discard))
	if len(batch) != 1 || rest != nil {
		t.Errorf("all-batch split: %d batchers, rest %v", len(batch), rest)
	}

	// Mixed graph, nested tee: batchers extracted, single leftover
	// returned directly.
	batch, rest = Split(NewTee(&c, Tee{&rec}))
	if len(batch) != 1 || rest != Sink(&rec) {
		t.Errorf("mixed split: %d batchers, rest %T", len(batch), rest)
	}

	// Multiple leftovers recombine into a Tee.
	batch, rest = Split(NewTee(&c, &rec, &rec2, fn))
	if len(batch) != 1 {
		t.Errorf("batchers = %d", len(batch))
	}
	if tee, ok := rest.(Tee); !ok || len(tee) != 3 {
		t.Errorf("rest = %T %v, want 3-element Tee", rest, rest)
	}

	// Discard-only graph: nothing at all.
	batch, rest = Split(Discard)
	if len(batch) != 0 || rest != nil {
		t.Errorf("discard split: %d batchers, rest %v", len(batch), rest)
	}
}

var _ BatchSink = (*Counter)(nil)
var _ BatchSink = (Tee)(nil)
var _ BatchSink = (*Filter)(nil)
var _ BatchSink = discardSink{}
