package trace

import "testing"

// The Tid column is optional: blocks built by single-threaded producers
// must not grow one, and blocks that do grow one must agree with the
// per-reference expansion everywhere a tid can be observed.

func TestBlockTidsAbsentWhenZero(t *testing.T) {
	var b Block
	b.Append(Ref{Addr: 0x100, Size: 4, Kind: Read})
	b.AppendRun(0x200, 4, Write, 8)
	if b.Tids != nil {
		t.Fatalf("tid-0 rows materialized a Tids column: %v", b.Tids)
	}
	if got := b.At(1); got.Tid != 0 {
		t.Errorf("At(1).Tid = %d, want 0", got.Tid)
	}
	for i, r := range b.AppendRefs(nil) {
		if r.Tid != 0 {
			t.Errorf("expanded ref %d has tid %d, want 0", i, r.Tid)
		}
	}
}

func TestBlockTidBackfillAndExpansion(t *testing.T) {
	var b Block
	b.Append(Ref{Addr: 0x100, Size: 4, Kind: Read}) // before activation: tid 0
	b.AppendRun(0x200, 4, Write, 3)                 // before activation: tid 0
	b.Append(Ref{Addr: 0x300, Size: 8, Kind: Write, Tid: 5})
	b.AppendRunTid(0x400, 4, Read, 2, 7)
	if len(b.Tids) != b.Len() {
		t.Fatalf("Tids length %d, rows %d", len(b.Tids), b.Len())
	}
	wantRows := []uint8{0, 0, 5, 7}
	for i, want := range wantRows {
		if b.Tids[i] != want {
			t.Errorf("Tids[%d] = %d, want %d", i, b.Tids[i], want)
		}
		if got := b.At(i); got.Tid != want {
			t.Errorf("At(%d).Tid = %d, want %d", i, got.Tid, want)
		}
	}
	wantExpanded := []uint8{0, 0, 0, 0, 5, 7, 7}
	refs := b.AppendRefs(nil)
	if len(refs) != len(wantExpanded) {
		t.Fatalf("expanded to %d refs, want %d", len(refs), len(wantExpanded))
	}
	for i, r := range refs {
		if r.Tid != wantExpanded[i] {
			t.Errorf("expanded ref %d tid %d, want %d", i, r.Tid, wantExpanded[i])
		}
	}
}

func TestBlockTidResetKeepsColumn(t *testing.T) {
	var b Block
	b.Append(Ref{Addr: 1, Size: 4, Kind: Read, Tid: 3})
	b.Reset()
	if b.Tids == nil || len(b.Tids) != 0 {
		t.Fatalf("Reset left Tids = %v, want empty non-nil", b.Tids)
	}
	// A tid-0 row appended after Reset must still land in the column so
	// the lengths stay in lockstep.
	b.Append(Ref{Addr: 2, Size: 4, Kind: Read})
	if len(b.Tids) != 1 || b.Tids[0] != 0 {
		t.Fatalf("post-Reset append: Tids = %v, want [0]", b.Tids)
	}
}
