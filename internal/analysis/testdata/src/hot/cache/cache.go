// Package cache exercises the hotalloc zero-allocation contract: hot
// methods (matched by receiver and name) may not close over, box,
// make/new or otherwise allocate; append into reused buffers is
// exempt; non-hot methods allocate freely.
package cache

import (
	"fmt"
	"sort"
)

type point struct{ x uint64 }

func box(v any) { _ = v }

// Group mirrors the fused-sweep receiver; Ref/Block/accessLine/
// fusedScan are in the hot set.
type Group struct {
	buf  []uint64
	seen map[uint64]bool
}

// Ref trips every syntactic allocation class.
func (g *Group) Ref(addr uint64) {
	f := func() {} // want `closure literal in hot function Group.Ref`
	_ = f
	m := map[uint64]bool{} // want `map literal in hot function Group.Ref`
	_ = m
	sl := []uint64{addr} // want `slice literal in hot function Group.Ref`
	_ = sl
	p := &point{x: addr} // want `&composite literal in hot function Group.Ref`
	_ = p
	b := make([]byte, 8) // want `make in hot function Group.Ref`
	_ = b
	q := new(point) // want `new in hot function Group.Ref`
	_ = q
	s := "addr " + fmt.Sprint(addr) // want `string concatenation in hot function Group.Ref` `fmt\.Sprint allocates`
	_ = s
	sort.Slice(g.buf, func(i, j int) bool { return g.buf[i] < g.buf[j] }) // want `sort\.Slice boxes its comparator` `closure literal in hot function Group.Ref`
	box(addr)                                                             // want `argument boxes uint64 into interface`
}

// Block uses only the sanctioned idioms: append into a reused buffer
// and a call to a documented cold-path helper.
func (g *Group) Block(addrs []uint64) {
	for _, a := range addrs {
		g.buf = append(g.buf, a)
	}
	g.cold(len(addrs))
}

// cold is not in the hot set; it may allocate freely.
func (g *Group) cold(n int) {
	g.seen = make(map[uint64]bool, n)
}

// accessLine shows a justified suppression: the diagnostic on the make
// is covered by the directive above it.
func (g *Group) accessLine(line uint64) {
	if g.buf == nil {
		//lint:allow hotalloc one-time scratch materialization, amortized across replays
		g.buf = make([]uint64, 0, 64)
	}
	g.buf = append(g.buf, line)
}

// fusedScan is clean; its leftover directive is stale and the
// suppression audit flags it.
func (g *Group) fusedScan() {
	//lint:allow hotalloc stale justification kept after the fix // want `lint:allow hotalloc suppresses no diagnostic here`
	g.buf = g.buf[:0]
}

// lineSet.addRange is hot and clean.
type lineSet struct{ dense []uint64 }

func (s *lineSet) addRange(first, last uint64) {
	for ; first <= last; first++ {
		s.dense = append(s.dense, first)
	}
}

// Sharing mirrors the sharing attributor's sweep path; Ref, Block,
// access, runRow and accessLine are in the hot set.
type Sharing struct {
	written []uint64
	counts  map[uint64]uint64
}

// accessLine may not materialize per-event state inline; the counter
// map has to come from a cold-path helper.
func (s *Sharing) accessLine(line uint64) {
	if s.counts == nil {
		s.counts = map[uint64]uint64{} // want `map literal in hot function Sharing.accessLine`
	}
	s.counts[line]++
}

// runRow folds a run with index arithmetic and append into a reused
// buffer: clean.
func (s *Sharing) runRow(addr uint64, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.written = append(s.written, addr+i)
	}
}

// event is not in the hot set — the attributor's cold event path may
// materialize counters freely.
func (s *Sharing) event() {
	s.counts = make(map[uint64]uint64)
}

// Helper is neither a hot receiver nor a hot name: free to allocate.
func Helper() []byte { return make([]byte, 32) }
