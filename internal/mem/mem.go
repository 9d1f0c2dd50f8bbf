// Package mem provides the simulated byte-addressable address space on
// which every allocator in this repository operates.
//
// The allocators are not models: they are real implementations whose
// freelist links, boundary tags and chunk headers live as 32-bit words
// inside this simulated memory. Every word read or written by an
// allocator emits a trace.Ref (so the cache and page simulators see the
// allocator's own reference behaviour — the paper's central concern) and
// charges one instruction to the active cost domain (loads and stores
// are instructions on the paper's MIPS test vehicle).
//
// Memory is sparse and organized into named regions. Each region has a
// fixed virtual base and grows upward via Sbrk, mimicking Unix program
// break semantics; distinct regions live far apart so an allocator can
// keep, say, a chunk-descriptor table in one region and the heap proper
// in another (as GNU malloc does) without the two colliding. Backing
// pages are materialized lazily, so a region's virtual span costs
// nothing until touched.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mallocsim/internal/cost"
	"mallocsim/internal/trace"
)

const (
	// WordSize is the machine word in bytes. The paper's test vehicle is
	// a 32-bit DECstation; boundary tags are one word ("two extra words
	// of overhead ... 8 bytes").
	WordSize = 4

	// PageSize is the backing-store granularity and also the page size
	// used by the paper's VM experiments (4 KB).
	PageSize  = 1 << pageShift
	pageShift = 12

	// LineSize is the cache block size of the paper's test vehicle
	// (32-byte blocks on the DECstation's R3000). The cache simulators
	// default to it; it lives here, next to WordSize and PageSize, so
	// the whole tree derives its machine geometry from one place (the
	// wordaddr analyzer enforces this).
	LineSize = 32

	// RegionSpan is the virtual address spacing between region bases
	// (see NewRegion) and the largest size a region may grow to: 4 GiB,
	// so a region-relative offset fits a 32-bit word. PageDir splits its
	// tables at it.
	RegionSpan  = 1 << regionShift
	regionShift = 32

	// regionStagger offsets region i's base by i·regionStagger within
	// its span (see NewRegion).
	regionStagger = 37 * PageSize

	// staggerRegions is the number of regions whose stagger stays
	// inside one span: up to it, region i's base lies in span i+1.
	staggerRegions = RegionSpan / regionStagger
)

// RegionReserve is the number of bytes reserved at the start of every
// region, so that no object ever lives at region offset 0: allocators
// store region-relative offsets in 32-bit memory words, and offset 0 is
// their NULL.
const RegionReserve = 2 * WordSize

// ErrOutOfMemory is returned by Sbrk when a region's limit is exceeded.
var ErrOutOfMemory = errors.New("mem: out of memory")

// ErrBadAddress is returned for accesses outside any region's break.
var ErrBadAddress = errors.New("mem: address outside allocated region")

// DefaultBatchSize is the reference ring-buffer capacity used by
// SetBatching(0): 2048 refs (~26 KB of columns) still fits comfortably
// in L2 while cutting the per-flush fan-out and the run-length breaks
// at block boundaries to an eighth of a 256-ref buffer's.
const DefaultBatchSize = 2048

// InstrPerAccess is the instruction charge per word access: one load or
// store instruction.
const InstrPerAccess = 1

// Memory is a sparse simulated address space. It is not safe for
// concurrent use; each simulation run owns one Memory.
type Memory struct {
	pages   PageDir[[PageSize]byte]
	regions []*Region
	sink    trace.Sink
	meter   *cost.Meter

	// Batched reference delivery (see SetBatching): emitted references
	// accumulate in the columnar ring buffer (addrs/sizes/kinds/runs,
	// one row per reference — or per word run, see TouchRun) and are
	// handed at flush boundaries as one trace.Block to each BlockSink;
	// direct receives every reference synchronously. addrs == nil means
	// batching is off.
	addrs      []uint64
	sizes      []uint32
	kinds      []trace.Kind
	runs       []uint32
	bufN       int
	blockSinks []trace.BlockSink
	direct     trace.Sink
	flushBlk   trace.Block

	// Thread-identity stamping (see SetTid). tids is the optional
	// columnar tid ring, allocated lazily on the first SetTid call so
	// that single-threaded runs carry no column and flush blocks with a
	// nil Tids column — byte-identical to the pre-Tid pipeline. curTid
	// is stamped into every emitted reference; it stays 0 until SetTid
	// is called, and Ref.Tid == 0 is the zero value either way.
	tids   []uint8
	curTid uint8
	tidOn  bool

	// DefaultRegionLimit caps regions created with limit 0. It exists
	// for failure-injection tests: a small default limit drives every
	// allocator's out-of-memory paths without special constructors.
	// Zero means the full region span.
	DefaultRegionLimit uint64
}

// New creates an empty Memory that reports references to sink and
// charges instructions to meter. Either may be nil, in which case
// references are discarded / instructions are not charged.
func New(sink trace.Sink, meter *cost.Meter) *Memory {
	if sink == nil {
		sink = trace.Discard
	}
	return &Memory{
		pages: NewPageDir[[PageSize]byte](pageShift),
		sink:  sink,
		meter: meter,
	}
}

// SetSink replaces the reference sink. Pending batched references are
// flushed to the old sinks first.
func (m *Memory) SetSink(s trace.Sink) {
	if s == nil {
		s = trace.Discard
	}
	m.Flush()
	m.sink = s
	if m.addrs != nil {
		m.rebatch(len(m.addrs))
	}
}

// SetBatching enables (size > 0, or 0 for DefaultBatchSize) or disables
// (size < 0) batched reference delivery. When enabled, references are
// buffered in a columnar ring buffer and flushed as a trace.Block to
// every sink that implements trace.BlockSink; every other sink still
// receives each reference immediately, so order-sensitive sinks stay
// exact.
// Callers that read simulator state out of band (cache counters, fault
// curves) must call Flush first; the simulation drivers in package sim
// and paper do.
//
// Batching is off by default: ad-hoc pipelines keep the seed semantics
// where every sink observes each reference the instant it is emitted.
func (m *Memory) SetBatching(size int) {
	m.Flush()
	if size < 0 {
		m.addrs, m.sizes, m.kinds, m.runs, m.tids = nil, nil, nil, nil, nil
		m.blockSinks, m.direct = nil, nil
		return
	}
	if size == 0 {
		size = DefaultBatchSize
	}
	m.rebatch(size)
}

// rebatch recomputes the block/direct split of the current sink.
func (m *Memory) rebatch(size int) {
	m.blockSinks, _, m.direct = trace.SplitBlocks(m.sink)
	if len(m.blockSinks) == 0 {
		// Nothing batches: fall back to the plain path.
		m.addrs, m.sizes, m.kinds, m.runs, m.tids = nil, nil, nil, nil, nil
		m.direct = nil
		return
	}
	m.addrs = make([]uint64, size)
	m.sizes = make([]uint32, size)
	m.kinds = make([]trace.Kind, size)
	m.runs = make([]uint32, size)
	if m.tidOn {
		m.tids = make([]uint8, size)
	} else {
		m.tids = nil
	}
	m.bufN = 0
}

// SetTid sets the logical thread id stamped on every subsequently
// emitted reference. The default tid is 0; the first call activates the
// Tids column on flushed blocks (rows buffered before activation keep
// tid 0), so workloads that never call SetTid produce blocks with a nil
// Tids column and a byte-identical reference stream to the pre-Tid
// pipeline. Concurrent workload drivers call SetTid when switching the
// logical thread whose references they are replaying; like the rest of
// Memory it is not safe for concurrent use.
func (m *Memory) SetTid(tid uint8) {
	if tid == m.curTid && m.tidOn {
		return
	}
	if !m.tidOn {
		m.tidOn = true
		if m.addrs != nil {
			// Rows already buffered were emitted under tid 0; a zeroed
			// column of the full ring capacity records exactly that.
			m.tids = make([]uint8, len(m.addrs))
		}
	}
	m.curTid = tid
}

// Flush delivers buffered references to the block sinks. It is a no-op
// when batching is disabled or the buffer is empty.
func (m *Memory) Flush() {
	if m.bufN == 0 {
		return
	}
	n := m.bufN
	m.bufN = 0
	m.flushBlk = trace.Block{Addrs: m.addrs[:n], Sizes: m.sizes[:n], Kinds: m.kinds[:n], Runs: m.runs[:n]}
	if m.tids != nil {
		m.flushBlk.Tids = m.tids[:n]
	}
	for _, b := range m.blockSinks {
		b.Block(&m.flushBlk)
	}
}

// emit routes one reference to the sinks, via the ring buffer when
// batching is enabled.
func (m *Memory) emit(r trace.Ref) {
	// One unconditional byte move keeps the single-threaded fast path
	// branch-free: curTid is 0 until SetTid is first called, matching
	// the Ref zero value.
	r.Tid = m.curTid
	if m.addrs == nil {
		m.sink.Ref(r)
		return
	}
	if m.direct != nil {
		m.direct.Ref(r)
	}
	n := m.bufN
	m.addrs[n] = r.Addr
	m.sizes[n] = r.Size
	m.kinds[n] = r.Kind
	m.runs[n] = 1
	if m.tids != nil {
		m.tids[n] = r.Tid
	}
	m.bufN = n + 1
	if m.bufN == len(m.addrs) {
		m.Flush()
	}
}

// Meter returns the cost meter, which may be nil.
func (m *Memory) Meter() *cost.Meter { return m.meter }

// Region is a contiguous, upward-growing span of the simulated address
// space, analogous to a Unix data segment.
type Region struct {
	m     *Memory
	name  string
	base  uint64
	brk   uint64
	limit uint64
}

// NewRegion creates a region with the given name and maximum size in
// bytes (0 means the full region span). Regions are assigned
// non-overlapping virtual bases in creation order, starting at 1<<32 so
// that address 0 is never valid (a faithful NULL).
func (m *Memory) NewRegion(name string, limit uint64) *Region {
	// Regions are staggered by a page count coprime to the cache sizes
	// under study so that region bases do not all collide on cache set
	// 0 (real processes also place segments at unrelated offsets).
	i := uint64(len(m.regions))
	base := (i+1)*RegionSpan + i*regionStagger
	if limit == 0 {
		limit = m.DefaultRegionLimit
	}
	if limit == 0 || limit > RegionSpan {
		limit = RegionSpan
	}
	r := &Region{m: m, name: name, base: base, brk: base + RegionReserve, limit: base + limit}
	m.regions = append(m.regions, r)
	return r
}

// Regions returns all regions in creation order.
func (m *Memory) Regions() []*Region { return m.regions }

// RegionIndex returns the creation index of the region whose allocated
// span contains addr, or -1 if none does. It is O(1) through the span
// layout: region i's base lies in span i+1 (addr/RegionSpan), and a
// region grown past that span's end reaches only into span i+2, so at
// most two regions are candidates. Past staggerRegions regions the
// layout no longer maps spans to indices and a scan takes over.
func (m *Memory) RegionIndex(addr uint64) int {
	n := uint64(len(m.regions))
	if n > staggerRegions {
		for i, r := range m.regions {
			if r.Contains(addr) {
				return i
			}
		}
		return -1
	}
	span := addr / RegionSpan
	if i := span - 1; i < n && m.regions[i].Contains(addr) {
		return int(i)
	}
	if i := span - 2; i < n && m.regions[i].Contains(addr) {
		return int(i)
	}
	return -1
}

// RegionAt returns the region whose allocated span contains addr, or
// nil (see RegionIndex).
func (m *Memory) RegionAt(addr uint64) *Region {
	if i := m.RegionIndex(addr); i >= 0 {
		return m.regions[i]
	}
	return nil
}

// Footprint returns the total bytes requested from the "operating
// system" across all regions: the paper's "maximum heap size" metric.
func (m *Memory) Footprint() uint64 {
	var total uint64
	for _, r := range m.regions {
		total += r.brk - r.base
	}
	return total
}

// TouchedPages returns the number of distinct backing pages materialized
// so far (pages actually referenced, across all regions).
func (m *Memory) TouchedPages() int { return m.pages.Len() }

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Base returns the region's first virtual address.
func (r *Region) Base() uint64 { return r.base }

// Brk returns the current program break (one past the last valid byte).
func (r *Region) Brk() uint64 { return r.brk }

// Size returns the bytes obtained so far via Sbrk.
func (r *Region) Size() uint64 { return r.brk - r.base }

// Contains reports whether addr lies inside the region's allocated span.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.base && addr < r.brk
}

// Sbrk extends the region by n bytes (rounded up to word size) and
// returns the address of the new space. It fails with ErrOutOfMemory
// when the region limit would be exceeded. Sbrk itself costs a few
// instructions (a system-call stub on the original hardware); we charge
// a flat SbrkCost.
const SbrkCost = 20

// Sbrk extends the region and returns the old break.
func (r *Region) Sbrk(n uint64) (uint64, error) {
	n = alignUp(n, WordSize)
	if r.brk+n > r.limit {
		return 0, fmt.Errorf("%w: region %q limit %d exceeded (brk %d + %d)",
			ErrOutOfMemory, r.name, r.limit-r.base, r.brk-r.base, n)
	}
	old := r.brk
	r.brk += n
	r.charge(SbrkCost)
	return old, nil
}

func (r *Region) charge(n uint64) {
	if r.m.meter != nil {
		r.m.meter.Charge(n)
	}
}

func (m *Memory) checkAddr(addr uint64, n uint32) {
	// A word access must lie inside some region's allocated span.
	// Out-of-range accesses are programming errors in an allocator and
	// abort the simulation loudly rather than silently corrupting it.
	if i := m.RegionIndex(addr); i >= 0 && addr+uint64(n) <= m.regions[i].brk {
		return
	}
	panic(fmt.Sprintf("mem: access [%#x,+%d) outside any region break", addr, n))
}

// ReadWord loads the 32-bit word at addr (which must be word-aligned),
// emitting a read reference and charging one instruction.
func (m *Memory) ReadWord(addr uint64) uint64 {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned word read at %#x", addr))
	}
	m.checkAddr(addr, WordSize)
	if m.meter != nil {
		m.meter.Charge(InstrPerAccess)
	}
	m.emit(trace.Ref{Addr: addr, Size: WordSize, Kind: trace.Read})
	p := m.pages.Lookup(PageOf(addr))
	off := PageOffset(addr)
	return uint64(binary.LittleEndian.Uint32(p[off : off+WordSize]))
}

// PeekWord loads the 32-bit word at addr with ReadWord's alignment and
// region-bounds checks, but emits no reference, charges no instruction
// and materializes no backing page. It is the heap auditor's read
// (alloc.HeapCheck): an audited run must measure exactly what the
// unaudited run measures.
func (m *Memory) PeekWord(addr uint64) uint64 {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned word read at %#x", addr))
	}
	m.checkAddr(addr, WordSize)
	p := m.pages.Peek(PageOf(addr))
	if p == nil {
		return 0
	}
	off := PageOffset(addr)
	return uint64(binary.LittleEndian.Uint32(p[off : off+WordSize]))
}

// WriteWord stores a 32-bit word at addr (word-aligned), emitting a
// write reference and charging one instruction. Values must fit in 32
// bits: the simulated machine is a 32-bit DECstation, and all addresses
// stored in memory are region-relative (see Region.EncodePtr).
func (m *Memory) WriteWord(addr, val uint64) {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned word write at %#x", addr))
	}
	if val>>32 != 0 {
		panic(fmt.Sprintf("mem: value %#x does not fit in a 32-bit word", val))
	}
	m.checkAddr(addr, WordSize)
	if m.meter != nil {
		m.meter.Charge(InstrPerAccess)
	}
	m.emit(trace.Ref{Addr: addr, Size: WordSize, Kind: trace.Write})
	p := m.pages.Lookup(PageOf(addr))
	off := PageOffset(addr)
	binary.LittleEndian.PutUint32(p[off:off+WordSize], uint32(val))
}

// Pointer encoding: simulated words are 32 bits wide but virtual
// addresses exceed 32 bits (regions are based at multiples of 1<<32).
// Allocators therefore store *region-relative offsets* in memory words.
// EncodePtr/DecodePtr perform the translation; offset 0 plays the role
// of NULL (region offsets of real objects are never 0 because every
// region reserves its first word).

// EncodePtr converts a full virtual address within r to a storable word
// value. The zero address encodes as 0 (NULL).
func (r *Region) EncodePtr(addr uint64) uint64 {
	if addr == 0 {
		return 0
	}
	if addr < r.base || addr >= r.base+RegionSpan {
		panic(fmt.Sprintf("mem: address %#x outside region %q", addr, r.name))
	}
	return addr - r.base
}

// DecodePtr converts a stored word value back to a full virtual address.
// The word 0 decodes to address 0 (NULL).
func (r *Region) DecodePtr(word uint64) uint64 {
	if word == 0 {
		return 0
	}
	return r.base + word
}

// Touch emits a reference of n bytes at addr without reading or writing
// backing store and charges one instruction per word touched. It is
// used by the synthetic application workloads, whose data contents are
// irrelevant — only their addresses matter to the locality simulators.
func (m *Memory) Touch(addr uint64, n uint32, k trace.Kind) {
	if m.meter != nil {
		m.meter.Charge(InstrPerAccess)
	}
	m.emit(trace.Ref{Addr: addr, Size: n, Kind: k})
}

// TouchRun emits n word-sized references at consecutive word addresses
// starting at addr, charging one instruction per word. The reference
// stream it produces is exactly the one Touch(addr+i*WordSize,
// WordSize, k) for i in [0,n) produces — same references, same order,
// same charge. With batching enabled the whole run is stored as a
// single run row in the columnar buffer (see trace.Block.Runs), so
// simulators consume it with closed-form line/page arithmetic instead
// of n separate rows; flush boundaries may therefore differ from the
// per-word calls, which the BlockSink deferred-delivery contract
// permits. The workload drivers use TouchRun for object initialization
// and sequential heap runs.
func (m *Memory) TouchRun(addr uint64, n uint64, k trace.Kind) {
	if n == 0 {
		return
	}
	if m.meter != nil {
		m.meter.Charge(n * InstrPerAccess)
	}
	if m.addrs == nil || m.direct != nil ||
		n >= 1<<62 || addr+n*WordSize-1 < addr {
		// Unbatched; a synchronous sink wants every reference the
		// instant it is generated; or the run would wrap the address
		// space (run rows must not — wrap-around is only expressible
		// reference by reference): the per-reference path.
		for ; n > 0; n-- {
			r := trace.Ref{Addr: addr, Size: WordSize, Kind: k, Tid: m.curTid}
			if m.addrs == nil {
				m.sink.Ref(r)
			} else {
				m.emit(r)
			}
			addr += WordSize
		}
		return
	}
	for n > 0 {
		run := n
		if run > math.MaxUint32 {
			run = math.MaxUint32
		}
		row := m.bufN
		m.addrs[row] = addr
		m.sizes[row] = WordSize
		m.kinds[row] = k
		m.runs[row] = uint32(run)
		if m.tids != nil {
			m.tids[row] = m.curTid
		}
		m.bufN = row + 1
		addr += run * WordSize
		n -= run
		if m.bufN == len(m.addrs) {
			m.Flush()
		}
	}
}

func alignUp(n, a uint64) uint64 {
	return (n + a - 1) &^ (a - 1)
}

// AlignUp rounds n up to a multiple of a (a power of two).
func AlignUp(n, a uint64) uint64 { return alignUp(n, a) }

// Geometry helpers: the blessed spellings of address decomposition.
// Code outside this package must not hand-roll the equivalent
// shift/mask arithmetic or re-declare the 4/32/4096 magic numbers —
// the wordaddr analyzer (cmd/alloclint) flags both.

// WordOf returns the word index of an address or offset.
func WordOf(addr uint64) uint64 { return addr / WordSize }

// LineOf returns the cache-line index of an address.
func LineOf(addr uint64) uint64 { return addr / LineSize }

// LineOffset returns the byte offset of an address within its line.
func LineOffset(addr uint64) uint64 { return addr % LineSize }

// PageOf returns the page number of an address.
func PageOf(addr uint64) uint64 { return addr / PageSize }

// PageOffset returns the byte offset of an address within its page.
func PageOffset(addr uint64) uint64 { return addr % PageSize }
