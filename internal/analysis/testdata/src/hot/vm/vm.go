// Package vm exercises hotalloc on the StackSim hot set.
package vm

type StackSim struct{ hist []uint64 }

// record grows its histogram by append: exempt.
func (s *StackSim) record(d int) {
	for d >= len(s.hist) {
		s.hist = append(s.hist, 0)
	}
	s.hist[d]++
}

// accessPage allocates a channel per probe: flagged.
func (s *StackSim) accessPage(p uint64) {
	c := make(chan uint64, 1) // want `make in hot function StackSim.accessPage`
	c <- p
}

// Curve is a cold reader: copies allocate freely.
func (s *StackSim) Curve() []uint64 {
	out := make([]uint64, len(s.hist))
	copy(out, s.hist)
	return out
}

// fenwick mirrors the default stack engine: access, prefix and add are
// hot; compact (slot-space growth) is a cold path.
type fenwick struct {
	tree  []int32
	slots [][4096]int32
}

// access allocates a scratch slice per probe: flagged.
func (f *fenwick) access(page uint64) int {
	seen := make([]uint64, 0, 1) // want `make in hot function fenwick.access`
	seen = append(seen, page)
	f.slots[page>>12][page&4095] = int32(len(seen))
	return f.prefix(len(f.tree) - 1)
}

func (f *fenwick) prefix(i int) int {
	var sum int32
	for ; i > 0; i -= i & -i {
		sum += f.tree[i]
	}
	return int(sum)
}

func (f *fenwick) add(i int, delta int32) {
	for ; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// compact grows the tree: cold, allocates freely.
func (f *fenwick) compact() {
	f.tree = make([]int32, 2*len(f.tree))
}
