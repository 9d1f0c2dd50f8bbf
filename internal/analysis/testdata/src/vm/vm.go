// Package vm exercises the hash/maphash ban in a determinism-scoped
// package: a hash that selects simulation state must be a pure function
// of its input, and maphash seeds are randomized per process.
package vm

import (
	"hash/maphash" // want `import of hash/maphash in a determinism-scoped package`
)

var seed = maphash.MakeSeed()

// PickPage selects pages by a per-process random seed: the same trace
// would select a different page population every run.
func PickPage(page uint64) bool {
	var h maphash.Hash
	h.SetSeed(seed)
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(page >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()&63 == 0
}

// PickPageFixed is the blessed shape: a fixed avalanche hash
// (SplitMix64's finalizer) of the page number, identical in every
// process.
func PickPageFixed(page uint64) bool {
	z := page + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z^(z>>31))&63 == 0
}
