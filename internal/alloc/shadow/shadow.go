// Package shadow wraps an alloc.Allocator with an independent oracle
// model of the heap and validates every operation against it.
//
// The oracle is host-side state (an address-ordered treap of live
// blocks plus per-block size/site bookkeeping) — it issues no simulated
// references and charges no instructions, and neither do its periodic
// boundary-tag audits (see Options.AuditEvery), so wrapping changes
// nothing about the run being measured. Each Malloc and Free is
// checked for the contract documented on alloc.Allocator: returned
// blocks must be word-aligned, non-null, inside the allocator's own
// region span and disjoint from every live block; frees must target
// live block bases, and double frees and interior pointers must be
// rejected with alloc.ErrBadFree. Violations are recorded as structured
// records (operation index, allocator, invariant, block) and surfaced
// through Snapshot, which the simulation embeds in its JSON run report.
//
// The wrapper is an observer, not a gatekeeper: every call is forwarded
// to the wrapped allocator and its result returned unchanged, so a
// buggy allocator behaves identically with and without the shadow — the
// shadow just tells you about it.
package shadow

import (
	"errors"
	"fmt"

	"mallocsim/internal/alloc"
	"mallocsim/internal/mem"
)

// Invariant names identify what a Violation violated. They are stable
// strings (they appear in JSON reports and CI logs).
const (
	// InvNullReturn: Malloc reported success but returned address 0.
	InvNullReturn = "malloc-null"
	// InvMisaligned: Malloc returned an address not word-aligned.
	InvMisaligned = "misaligned"
	// InvOverlap: a returned block overlaps a live block.
	InvOverlap = "overlap"
	// InvOutOfRegion: a returned block lies outside the break of any
	// simulated region, or inside a region's reserved prefix — payload
	// escaping the allocator's own metadata/payload layout.
	InvOutOfRegion = "out-of-region"
	// InvMallocErrClass: Malloc failed with an error that is neither
	// alloc.ErrTooLarge nor one wrapping mem.ErrOutOfMemory.
	InvMallocErrClass = "malloc-error-class"
	// InvFreeLiveRejected: Free of a live block base returned an error.
	InvFreeLiveRejected = "free-live-rejected"
	// InvDoubleFree: Free of an already-freed base succeeded.
	InvDoubleFree = "double-free-accepted"
	// InvInteriorFree: Free of a pointer strictly inside a live block
	// succeeded.
	InvInteriorFree = "interior-free-accepted"
	// InvUnknownFree: Free of an address never returned by Malloc
	// succeeded.
	InvUnknownFree = "unknown-free-accepted"
	// InvFreeErrClass: an invalid Free was rejected, but with an error
	// other than alloc.ErrBadFree.
	InvFreeErrClass = "free-error-class"
	// InvAudit: a periodic boundary-tag heap audit (alloc.Checker)
	// reported an inconsistency.
	InvAudit = "heap-audit"
)

// Violation is one recorded contract breach.
type Violation struct {
	// Op is the 1-based operation index (Mallocs and Frees both count).
	Op uint64 `json:"op"`
	// Allocator is the wrapped allocator's registry name.
	Allocator string `json:"allocator"`
	// Invariant is one of the Inv* constants.
	Invariant string `json:"invariant"`
	// Call is "malloc", "free" or "audit".
	Call string `json:"call"`
	// Addr is the address involved (block base for malloc violations,
	// the freed pointer for free violations), 0 if not applicable.
	Addr uint64 `json:"addr,omitempty"`
	// Size is the request size for malloc violations.
	Size uint32 `json:"size,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("op %d %s(%s): %s addr=%#x size=%d: %s",
		v.Op, v.Call, v.Allocator, v.Invariant, v.Addr, v.Size, v.Detail)
}

// Snapshot summarizes a shadow wrapper's observations for reports.
type Snapshot struct {
	Allocator   string            `json:"allocator"`
	Ops         uint64            `json:"ops"`
	Audits      uint64            `json:"audits"`
	LiveBlocks  int               `json:"live_blocks"`
	LiveBytes   uint64            `json:"live_bytes"`
	Violations  uint64            `json:"violations"`
	ByInvariant map[string]uint64 `json:"by_invariant,omitempty"`
	// First holds the first Options.MaxRecorded violations verbatim.
	First []Violation `json:"first,omitempty"`
}

// Options configures a shadow wrapper.
type Options struct {
	// AuditEvery runs a boundary-tag heap audit (alloc.Checker.Check)
	// every AuditEvery operations, when the wrapped allocator
	// implements Checker. 0 uses DefaultAuditEvery. Audits read
	// simulated memory uncounted (alloc.HeapCheck), so the cadence
	// changes no metric.
	AuditEvery uint64
	// MaxRecorded bounds the verbatim violation records kept (the
	// counters always count everything). 0 uses DefaultMaxRecorded.
	MaxRecorded int
	// OnViolation, if set, is called synchronously for every violation.
	OnViolation func(Violation)
}

// DefaultAuditEvery is the default audit cadence, in operations.
//
//lint:allow wordaddr 4096 is an op-count cadence (audit every 4096 Malloc/Free calls), not a byte quantity
const DefaultAuditEvery = 4096

// DefaultMaxRecorded is the default cap on verbatim violation records.
const DefaultMaxRecorded = 32

// node is one live allocation in the oracle's address-ordered treap.
type node struct {
	addr uint64
	size uint64 // effective payload span (≥ one word)
	site uint32
	op   uint64 // op index of the allocating call
	prio uint64
	l, r *node
}

// Allocator is the shadow wrapper. It implements alloc.Allocator,
// alloc.SiteAllocator and alloc.LocalityHinter (forwarding site and
// locality information when the wrapped allocator exploits them).
type Allocator struct {
	inner   alloc.Allocator
	site    alloc.SiteAllocator  // nil if inner is not site-aware
	hint    alloc.LocalityHinter // nil if inner is not hint-aware
	checker alloc.Checker        // nil if no audit hook anywhere in the chain
	m       *mem.Memory
	opts    Options

	ops    uint64
	audits uint64

	root      *node
	live      map[uint64]*node // addr → treap node
	liveBytes uint64
	freed     map[uint64]uint64 // former base → op index of the freeing call
	rng       uint64            // treap priorities (deterministic xorshift)

	counts   map[string]uint64
	total    uint64
	recorded []Violation
}

// Wrap builds a shadow wrapper around a. The memory m is consulted
// (host-side only) to validate that returned blocks lie inside region
// breaks. The audit hook is discovered by unwrapping a's wrapper chain
// (anything implementing Unwrap() alloc.Allocator) until an
// alloc.Checker is found.
func Wrap(a alloc.Allocator, m *mem.Memory, opts Options) *Allocator {
	if opts.AuditEvery == 0 {
		opts.AuditEvery = DefaultAuditEvery
	}
	if opts.MaxRecorded == 0 {
		opts.MaxRecorded = DefaultMaxRecorded
	}
	s := &Allocator{
		inner:  a,
		m:      m,
		opts:   opts,
		live:   map[uint64]*node{},
		freed:  map[uint64]uint64{},
		rng:    0x9e3779b97f4a7c15,
		counts: map[string]uint64{},
	}
	s.site, _ = a.(alloc.SiteAllocator)
	s.hint, _ = a.(alloc.LocalityHinter)
	for inner := a; ; {
		if c, ok := inner.(alloc.Checker); ok {
			s.checker = c
			break
		}
		u, ok := inner.(interface{ Unwrap() alloc.Allocator })
		if !ok {
			break
		}
		inner = u.Unwrap()
	}
	return s
}

// Name returns the wrapped allocator's name.
func (s *Allocator) Name() string { return s.inner.Name() }

// Unwrap returns the wrapped allocator.
func (s *Allocator) Unwrap() alloc.Allocator { return s.inner }

// Malloc forwards to the wrapped allocator and validates the result.
func (s *Allocator) Malloc(n uint32) (uint64, error) {
	addr, err := s.inner.Malloc(n)
	s.afterMalloc(n, 0, addr, err)
	return addr, err
}

// MallocSite forwards site information when the wrapped allocator is
// site-aware, falling back to Malloc otherwise.
func (s *Allocator) MallocSite(n uint32, site uint32) (uint64, error) {
	var addr uint64
	var err error
	if s.site != nil {
		addr, err = s.site.MallocSite(n, site)
	} else {
		addr, err = s.inner.Malloc(n)
	}
	s.afterMalloc(n, site, addr, err)
	return addr, err
}

// MallocLocal forwards the locality hint when the wrapped allocator is
// hint-aware, falling back to Malloc otherwise. The oracle does not
// model hints — placement policy is the allocator's business — so the
// usual liveness and geometry validation applies unchanged.
func (s *Allocator) MallocLocal(n uint32, locality uint32) (uint64, error) {
	var addr uint64
	var err error
	if s.hint != nil {
		addr, err = s.hint.MallocLocal(n, locality)
	} else {
		addr, err = s.inner.Malloc(n)
	}
	s.afterMalloc(n, 0, addr, err)
	return addr, err
}

// Free forwards to the wrapped allocator and validates the outcome
// against the oracle's liveness model.
func (s *Allocator) Free(addr uint64) error {
	err := s.inner.Free(addr)
	s.afterFree(addr, err)
	return err
}

// effSize is the payload span the oracle books for a request: at least
// one word, per the Malloc(0) contract.
func effSize(n uint32) uint64 {
	if n == 0 {
		return mem.WordSize
	}
	return uint64(n)
}

func (s *Allocator) afterMalloc(n uint32, site uint32, addr uint64, err error) {
	s.ops++
	defer s.maybeAudit()
	if err != nil {
		if !errors.Is(err, alloc.ErrTooLarge) && !errors.Is(err, mem.ErrOutOfMemory) {
			s.violate(Violation{Call: "malloc", Invariant: InvMallocErrClass, Size: n,
				Detail: fmt.Sprintf("unexpected error class: %v", err)})
		}
		return
	}
	size := effSize(n)
	if addr == 0 {
		s.violate(Violation{Call: "malloc", Invariant: InvNullReturn, Size: n,
			Detail: "nil error but null address"})
		return
	}
	if addr%mem.WordSize != 0 {
		s.violate(Violation{Call: "malloc", Invariant: InvMisaligned, Addr: addr, Size: n,
			Detail: fmt.Sprintf("address %% %d = %d", mem.WordSize, addr%mem.WordSize)})
	}
	if r := s.m.RegionAt(addr); r == nil {
		s.violate(Violation{Call: "malloc", Invariant: InvOutOfRegion, Addr: addr, Size: n,
			Detail: "address outside every simulated region"})
	} else if addr < r.Base()+mem.RegionReserve || addr+size > r.Brk() {
		s.violate(Violation{Call: "malloc", Invariant: InvOutOfRegion, Addr: addr, Size: n,
			Detail: fmt.Sprintf("payload [%#x,%#x) escapes region %s [%#x,%#x)",
				addr, addr+size, r.Name(), r.Base()+mem.RegionReserve, r.Brk())})
	}
	// No-overlap against the address-ordered live set: the predecessor
	// must end at or before addr, the successor start at or after
	// addr+size.
	if p := s.floor(addr - 1); p != nil && p.addr+p.size > addr {
		s.violate(Violation{Call: "malloc", Invariant: InvOverlap, Addr: addr, Size: n,
			Detail: fmt.Sprintf("overlaps live block [%#x,%#x) from op %d", p.addr, p.addr+p.size, p.op)})
	}
	if nx := s.ceil(addr); nx != nil && nx.addr != addr && addr+size > nx.addr {
		s.violate(Violation{Call: "malloc", Invariant: InvOverlap, Addr: addr, Size: n,
			Detail: fmt.Sprintf("overlaps live block [%#x,%#x) from op %d", nx.addr, nx.addr+nx.size, nx.op)})
	}
	if old, dup := s.live[addr]; dup {
		// Exact duplicate base: the floor/ceil probes above skip the
		// node at addr itself, so report the overlap here, then adopt
		// the newer claim (observer, not gatekeeper).
		s.violate(Violation{Call: "malloc", Invariant: InvOverlap, Addr: addr, Size: n,
			Detail: fmt.Sprintf("same base as live block [%#x,%#x) from op %d", old.addr, old.addr+old.size, old.op)})
		s.liveBytes += size - old.size
		old.size, old.site, old.op = size, site, s.ops
	} else {
		s.insert(&node{addr: addr, size: size, site: site, op: s.ops, prio: s.nextPrio()})
		s.liveBytes += size
	}
	delete(s.freed, addr)
}

func (s *Allocator) afterFree(addr uint64, err error) {
	s.ops++
	defer s.maybeAudit()
	if b, ok := s.live[addr]; ok {
		if err != nil {
			s.violate(Violation{Call: "free", Invariant: InvFreeLiveRejected, Addr: addr,
				Detail: fmt.Sprintf("live block from op %d rejected: %v", b.op, err)})
			// Keep the block live: the allocator claims it still is.
			return
		}
		s.remove(addr)
		s.freed[addr] = s.ops
		return
	}
	// Not a live base. Classify what the allocator should have rejected.
	inv, detail := InvUnknownFree, "address never returned by Malloc"
	if opIdx, wasFreed := s.freed[addr]; wasFreed {
		inv, detail = InvDoubleFree, fmt.Sprintf("base already freed at op %d", opIdx)
	} else if p := s.floor(addr); p != nil && addr > p.addr && addr < p.addr+p.size {
		inv, detail = InvInteriorFree,
			fmt.Sprintf("pointer into live block [%#x,%#x) from op %d", p.addr, p.addr+p.size, p.op)
	}
	if err == nil {
		s.violate(Violation{Call: "free", Invariant: inv, Addr: addr,
			Detail: detail + " — accepted"})
		return
	}
	if !errors.Is(err, alloc.ErrBadFree) {
		s.violate(Violation{Call: "free", Invariant: InvFreeErrClass, Addr: addr,
			Detail: fmt.Sprintf("%s — rejected with %v, want alloc.ErrBadFree", detail, err)})
	}
}

// --- address-ordered treap ---------------------------------------------

func (s *Allocator) nextPrio() uint64 {
	// xorshift64: deterministic so shadowed runs stay reproducible.
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

func merge(a, b *node) *node {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio >= b.prio {
		a.r = merge(a.r, b)
		return a
	}
	b.l = merge(a, b.l)
	return b
}

// split partitions t into nodes with addr < key and addr >= key.
func split(t *node, key uint64) (l, r *node) {
	if t == nil {
		return nil, nil
	}
	if t.addr < key {
		t.r, r = split(t.r, key)
		return t, r
	}
	l, t.l = split(t.l, key)
	return l, t
}

func (s *Allocator) insert(n *node) {
	l, r := split(s.root, n.addr)
	s.root = merge(merge(l, n), r)
	s.live[n.addr] = n
}

func (s *Allocator) remove(addr uint64) {
	b := s.live[addr]
	l, r := split(s.root, addr)
	_, r = split(r, addr+1) // drops the node with .addr == addr
	s.root = merge(l, r)
	delete(s.live, addr)
	s.liveBytes -= b.size
}

// floor returns the live block with the greatest base ≤ addr, nil if none.
func (s *Allocator) floor(addr uint64) *node {
	var best *node
	for t := s.root; t != nil; {
		if t.addr <= addr {
			best = t
			t = t.r
		} else {
			t = t.l
		}
	}
	return best
}

// ceil returns the live block with the smallest base ≥ addr, nil if none.
func (s *Allocator) ceil(addr uint64) *node {
	var best *node
	for t := s.root; t != nil; {
		if t.addr >= addr {
			best = t
			t = t.l
		} else {
			t = t.r
		}
	}
	return best
}

// --- audits and reporting ----------------------------------------------

func (s *Allocator) maybeAudit() {
	if s.checker == nil {
		return
	}
	if s.ops%s.opts.AuditEvery == 0 {
		s.runAudit()
	}
}

func (s *Allocator) runAudit() {
	s.audits++
	if _, err := s.checker.Check(); err != nil {
		s.violate(Violation{Call: "audit", Invariant: InvAudit, Detail: err.Error()})
	}
}

// Audit runs one boundary-tag heap audit immediately (typically at end
// of run). It reports whether the wrapped allocator supports auditing.
func (s *Allocator) Audit() bool {
	if s.checker == nil {
		return false
	}
	s.runAudit()
	return true
}

func (s *Allocator) violate(v Violation) {
	v.Op = s.ops
	v.Allocator = s.inner.Name()
	s.total++
	s.counts[v.Invariant]++
	if len(s.recorded) < s.opts.MaxRecorded {
		s.recorded = append(s.recorded, v)
	}
	if s.opts.OnViolation != nil {
		s.opts.OnViolation(v)
	}
}

// ViolationCount returns the total number of violations observed.
func (s *Allocator) ViolationCount() uint64 { return s.total }

// Violations returns the recorded violations (bounded by MaxRecorded).
func (s *Allocator) Violations() []Violation {
	out := make([]Violation, len(s.recorded))
	copy(out, s.recorded)
	return out
}

// LiveBlocks returns the oracle's current live-block count.
func (s *Allocator) LiveBlocks() int { return len(s.live) }

// Snapshot captures the wrapper's observations for reporting.
func (s *Allocator) Snapshot() *Snapshot {
	snap := &Snapshot{
		Allocator:  s.inner.Name(),
		Ops:        s.ops,
		Audits:     s.audits,
		LiveBlocks: len(s.live),
		LiveBytes:  s.liveBytes,
		Violations: s.total,
		First:      s.Violations(),
	}
	if len(s.counts) > 0 {
		snap.ByInvariant = make(map[string]uint64, len(s.counts))
		for k, v := range s.counts {
			snap.ByInvariant[k] = v
		}
	}
	return snap
}

var (
	_ alloc.Allocator      = (*Allocator)(nil)
	_ alloc.SiteAllocator  = (*Allocator)(nil)
	_ alloc.LocalityHinter = (*Allocator)(nil)
)
