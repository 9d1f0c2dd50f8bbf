// Package alloc defines the dynamic storage allocation (DSA) interface
// shared by the five allocator implementations the paper compares —
// FIRSTFIT, GNU G++ (Lea), BSD (Kingsley), GNU LOCAL (Haertel) and
// QUICKFIT (Weinstock/Wulf) — plus the paper's recommended §4.4
// architecture (package custom).
//
// Allocators are real implementations operating on simulated memory
// (package mem): their freelists, boundary tags and chunk descriptors
// are words in that memory, so every pointer chase an allocator performs
// shows up in the reference trace consumed by the cache and VM
// simulators. That is the point of the reproduction: the paper's
// central result is that the allocator's own reference behaviour (and
// the placement decisions it makes) measurably changes program locality.
package alloc

import (
	"errors"
	"fmt"
	"sort"

	"mallocsim/internal/mem"
)

// Errors returned by allocators.
var (
	// ErrBadFree reports a free of an address that is not currently
	// allocated by this allocator.
	ErrBadFree = errors.New("alloc: bad free")
	// ErrTooLarge reports a request beyond the allocator's limits.
	ErrTooLarge = errors.New("alloc: request too large")
)

// Allocator is the malloc/free interface.
//
// Malloc returns the address of n usable bytes. Free releases an
// address previously returned by Malloc. Implementations charge their
// ALU work to the memory's cost meter; the caller (the simulation
// driver) is responsible for switching the meter into the Malloc/Free
// domain around calls and for charging the fixed call overhead.
//
// The shared contract, enforced by every registered implementation and
// audited by package shadow:
//
//   - Malloc(0) is legal and behaves as Malloc of one word
//     (mem.WordSize): it returns a distinct, word-aligned, non-null
//     address with at least one usable word.
//   - Malloc failures are ErrTooLarge (the request exceeds the
//     algorithm's structural limits) or an error wrapping
//     mem.ErrOutOfMemory (the region limit was hit mid-run). Running
//     out of backing store must not panic once construction succeeded.
//   - Free returns ErrBadFree — without corrupting allocator state —
//     for null addresses, addresses never returned by Malloc, addresses
//     already freed (double free), and pointers into the interior of a
//     live block, to the extent the algorithm's metadata can detect
//     them. Detection is exact for double frees of the patterns the
//     alloctest battery exercises; adversarially constructed interior
//     pointers may evade tag checks on some algorithms, which is what
//     the shadow oracle exists to catch.
type Allocator interface {
	// Name returns the registry name, e.g. "firstfit".
	Name() string
	// Malloc allocates n bytes (n == 0 is read as one word) and
	// returns its address.
	Malloc(n uint32) (uint64, error)
	// Free releases a previously allocated address.
	Free(addr uint64) error
}

// Checker is an optional interface implemented by allocators that can
// audit their own heap structure (boundary-tag tiling, freelist
// consistency — see HeapCheck). The shadow wrapper runs Check
// periodically when the wrapped allocator implements it. Check reads
// the simulated memory uncounted, so an audited run emits the same
// references and charges the same instructions as an unaudited one.
type Checker interface {
	// Check walks the heap and returns an error describing the first
	// inconsistency found, if any.
	Check() (HeapStats, error)
}

// SiteAllocator is implemented by allocators that can exploit
// allocation-site information — the paper's §5.1 future work ("we also
// hope to include other work in program behavior prediction based on
// call site information [Barrett & Zorn] in the synthesized
// allocators"). Site identifiers are opaque small integers; callers
// that have no site information use plain Malloc, which such allocators
// treat as site 0.
type SiteAllocator interface {
	Allocator
	// MallocSite allocates n bytes on behalf of the given call site.
	MallocSite(n uint32, site uint32) (uint64, error)
}

// LocalityHinter is implemented by allocators that can exploit a
// caller-supplied locality hint — an opaque small integer naming the
// program phase (or other affinity domain) an object is born into.
// Objects carrying nearby hints are expected to be referenced together,
// so a hint-aware allocator steers them into the same arena to improve
// spatial locality (the post-1993 refinement of the paper's §4.4
// placement argument). Callers with no hint use plain Malloc, which
// hint-aware allocators treat as locality 0; allocators that cannot
// exploit hints simply do not implement the interface, and the workload
// driver falls back to Malloc/MallocSite for them.
type LocalityHinter interface {
	Allocator
	// MallocLocal allocates n bytes with the given locality id.
	MallocLocal(n uint32, locality uint32) (uint64, error)
}

// HintAware reports whether a — or the allocator at the bottom of a's
// wrapper chain (anything implementing Unwrap() Allocator) — natively
// exploits locality hints. Instrumentation wrappers implement
// LocalityHinter unconditionally so hints pass through transparently; a
// plain type assertion on a wrapped allocator therefore cannot tell a
// hint-aware heap from a wrapped oblivious one. Dispatchers holding
// both site and locality information use HintAware to decide which
// optional entry point to call.
func HintAware(a Allocator) bool {
	for {
		u, ok := a.(interface{ Unwrap() Allocator })
		if !ok {
			_, ok := a.(LocalityHinter)
			return ok
		}
		a = u.Unwrap()
	}
}

// Scanner is an optional interface implemented by allocators that
// search freelists (the sequential fits, and hybrids that fall back to
// one). ScanSteps returns the cumulative number of freelist nodes
// examined across all operations; per-call scan lengths — the paper's
// "sequential fit algorithms ... require a search" cost made visible —
// are deltas of this counter. Callers discover conformance with a type
// assertion; allocators that never search simply do not implement it.
type Scanner interface {
	ScanSteps() uint64
}

// CallOverhead is the instruction cost of the call/return linkage and
// argument setup of a malloc or free call, charged by the simulation
// driver per call (on top of the work the allocator itself performs).
const CallOverhead = 8

// Constructor builds an allocator instance on the given memory. Each
// instance creates its own regions; one Memory can host one allocator
// instance (plus workload regions).
type Constructor func(m *mem.Memory) Allocator

var registry = map[string]Constructor{}

// Register adds a named constructor. It panics on duplicates and is
// intended to be called from package init functions.
func Register(name string, c Constructor) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("alloc: duplicate registration of %q", name))
	}
	registry[name] = c
}

// New builds the named allocator on m.
func New(name string, m *mem.Memory) (Allocator, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("alloc: unknown allocator %q (have %v)", name, Names())
	}
	return c(m), nil
}

// Names returns the registered allocator names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Charge adds n ALU instructions to m's meter, if any. Allocator
// implementations use it for non-memory work (comparisons, arithmetic,
// branches); memory accesses are charged by mem itself.
func Charge(m *mem.Memory, n uint64) {
	if meter := m.Meter(); meter != nil {
		meter.Charge(n)
	}
}
