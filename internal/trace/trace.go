// Package trace defines the memory-reference records that flow from the
// simulated allocators and application workloads into the cache and
// virtual-memory simulators, together with composable sinks for routing,
// counting, filtering and serializing those references.
//
// The reference stream is the central artifact of the reproduction: the
// paper ("Improving the Cache Locality of Memory Allocation", PLDI 1993)
// is a trace-driven simulation study, and every experiment in this
// repository is a consumer of a trace.Sink.
//
// # Two delivery tiers
//
// The per-reference Sink.Ref call is the simulator's hottest edge, so
// sinks that can tolerate deferred delivery additionally implement
// BlockSink (Block(*Block)). Producers such as mem.Memory buffer
// references and flush them as one columnar Block to every BlockSink,
// while still delivering synchronously, reference by reference, to
// every other Sink. Custom Sink implementors need to do nothing: not
// implementing BlockSink is always correct. Implement it only when the
// sink's behaviour depends solely on the reference values and their
// order — see the BlockSink contract.
//
// The columnar Block representation (struct-of-arrays: separate
// address, size and kind columns) exists for the simulators' sake: a
// group of the paper's direct-mapped caches scans a whole block's
// addresses in one pass, collapsing consecutive accesses to a line and
// probing every configuration as each line closes, and the VM stack
// simulator walks the address column without loading sizes and kinds
// it mostly ignores.
package trace

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "unknown"
	}
}

// Ref is a single data reference: Size bytes at Addr, either a Read or a
// Write. Addresses are virtual addresses in the simulated address space
// managed by package mem.
//
// Tid is the logical thread that issued the reference. Single-threaded
// workloads leave it zero (the zero value fills the struct's existing
// padding, so the field is free); concurrent workloads stamp it via
// mem.Memory.SetTid so sharing-aware sinks (cache.Sharing) can attribute
// cross-thread line transfers. Sinks that do not care about thread
// identity ignore the field and behave exactly as before.
type Ref struct {
	Addr uint64
	Size uint32
	Kind Kind
	Tid  uint8
}

// Sink consumes a stream of references. Implementations include cache
// simulators, page-fault simulators, counters and trace writers.
type Sink interface {
	Ref(Ref)
}

// Block is a columnar (struct-of-arrays) batch of references: element i
// of each column together form one row. The column slices always have
// equal length. Splitting the stream into per-field columns lets bulk
// consumers touch only the columns they need — the cache simulators
// scan addresses and kinds without loading sizes for word references,
// and producers append runs of equal-size references without restoring
// the whole struct per element.
type Block struct {
	Addrs []uint64
	Sizes []uint32
	Kinds []Kind
	// Runs is the optional run-length column. When non-nil (same length
	// as the other columns), row i stands for Runs[i] consecutive
	// references — Addrs[i], Addrs[i]+Sizes[i], Addrs[i]+2·Sizes[i], …
	// — each Sizes[i] bytes of kind Kinds[i]. A nil Runs column (or a
	// row with Runs[i] == 1) is a single reference per row. Producers
	// must not emit run rows with Runs[i] == 0, and a run's address
	// arithmetic must not wrap the 64-bit address space (mem.Memory
	// falls back to single-reference rows near the top of the space);
	// consumers may rely on both. Word-run producers (mem.TouchRun)
	// use this to store an n-word sweep as one row, and the fused cache
	// group, the page simulator and the sharing attributor consume runs
	// with closed-form line/page arithmetic instead of per-reference
	// decomposition.
	Runs []uint32
	// Tids is the optional thread-identity column. When non-nil (same
	// length as the other columns), Tids[i] is the logical thread that
	// issued row i — every reference of a run row shares the row's tid.
	// A nil Tids column means every row was issued by thread 0, so
	// single-threaded producers pay nothing for the column's existence.
	// Like the other columns it is only valid for the duration of a
	// BlockSink.Block call.
	Tids []uint8
}

// Len returns the number of rows in the block. With a Runs column this
// can be smaller than the number of references; see Refs.
func (b *Block) Len() int { return len(b.Addrs) }

// Refs returns the total number of references in the block, expanding
// run rows.
func (b *Block) Refs() int {
	if b.Runs == nil {
		return len(b.Addrs)
	}
	var n uint64
	for _, r := range b.Runs {
		n += uint64(r)
	}
	return int(n)
}

// At returns the first reference of row i. Rows with Runs[i] > 1 stand
// for further references beyond it; use AppendRefs to expand them.
func (b *Block) At(i int) Ref {
	r := Ref{Addr: b.Addrs[i], Size: b.Sizes[i], Kind: b.Kinds[i]}
	if b.Tids != nil {
		r.Tid = b.Tids[i]
	}
	return r
}

// Append adds one single-reference row to the block. A nonzero r.Tid
// materializes the Tids column on first use.
func (b *Block) Append(r Ref) {
	if b.Tids == nil && r.Tid != 0 {
		b.ensureTids()
	}
	b.Addrs = append(b.Addrs, r.Addr)
	b.Sizes = append(b.Sizes, r.Size)
	b.Kinds = append(b.Kinds, r.Kind)
	if b.Runs != nil {
		b.Runs = append(b.Runs, 1)
	}
	if b.Tids != nil {
		b.Tids = append(b.Tids, r.Tid)
	}
}

// AppendRun adds a run row: n consecutive references of size bytes each
// starting at addr, all issued by thread 0. It materializes the Runs
// column on first use.
func (b *Block) AppendRun(addr uint64, size uint32, k Kind, n uint32) {
	b.AppendRunTid(addr, size, k, n, 0)
}

// AppendRunTid is AppendRun with an explicit thread id; a nonzero tid
// materializes the Tids column on first use.
func (b *Block) AppendRunTid(addr uint64, size uint32, k Kind, n uint32, tid uint8) {
	if b.Runs == nil {
		//lint:allow hotalloc one-time materialization of the Runs column, amortized across the block's reuse (Reset keeps the backing array)
		b.Runs = make([]uint32, len(b.Addrs), cap(b.Addrs))
		for i := range b.Runs {
			b.Runs[i] = 1
		}
	}
	if b.Tids == nil && tid != 0 {
		b.ensureTids()
	}
	b.Addrs = append(b.Addrs, addr)
	b.Sizes = append(b.Sizes, size)
	b.Kinds = append(b.Kinds, k)
	b.Runs = append(b.Runs, n)
	if b.Tids != nil {
		b.Tids = append(b.Tids, tid)
	}
}

// ensureTids backfills the Tids column with zeros (thread 0) for the
// rows appended before the first nonzero tid. Kept out of line so the
// one-time materialization is not inlined into the hot append paths
// (Reset keeps the backing array, so it never runs twice per block).
//
//go:noinline
func (b *Block) ensureTids() {
	b.Tids = make([]uint8, len(b.Addrs), cap(b.Addrs))
}

// Reset empties the block, keeping the columns' capacity.
func (b *Block) Reset() {
	b.Addrs = b.Addrs[:0]
	b.Sizes = b.Sizes[:0]
	b.Kinds = b.Kinds[:0]
	if b.Runs != nil {
		b.Runs = b.Runs[:0]
	}
	if b.Tids != nil {
		b.Tids = b.Tids[:0]
	}
}

// AppendRefs converts the block's references into dst (appending),
// expanding run rows, and returns the extended slice: the reference
// order the BlockSink contract is stated in.
func (b *Block) AppendRefs(dst []Ref) []Ref {
	for i, a := range b.Addrs {
		sz, k := b.Sizes[i], b.Kinds[i]
		var tid uint8
		if b.Tids != nil {
			tid = b.Tids[i]
		}
		n := uint32(1)
		if b.Runs != nil {
			n = b.Runs[i]
		}
		for ; n > 0; n-- {
			dst = append(dst, Ref{Addr: a, Size: sz, Kind: k, Tid: tid})
			a += uint64(sz)
		}
	}
	return dst
}

// BlockSink is a Sink that also accepts references as columnar blocks.
// Producers with a hot emit path (mem.Memory) buffer references and
// hand each flushed buffer as one Block to every BlockSink, replacing
// one interface call per reference per sink with one call per block;
// every other sink keeps receiving each reference through Ref the
// instant it is generated.
//
// Implementing BlockSink is a contract, not just an optimization: it
// declares that the sink tolerates *deferred* delivery. Block(b) must
// be equivalent to calling Ref for every reference of the block in row
// order — with run rows (see Block.Runs) expanded in place — and the
// sink must not depend on observing each reference at the instant it
// was generated (for example by reading clock-like state that advances
// between generation and flush). Sinks that need synchronous delivery —
// like obs.Attribution, which reads the cost meter's current domain per
// reference — implement plain Sink; see SplitBlocks.
//
// The block and its column slices are only valid for the duration of
// the call and will be reused by the producer; copy what must be
// retained.
type BlockSink interface {
	Sink
	Block(*Block)
}

// SplitBlocks partitions a sink graph into its block-capable leaves and
// an immediate-delivery remainder. Tees are flattened and Discard/nil
// entries dropped exactly as NewTee does; every leaf that implements
// BlockSink lands in the first result, and the rest are recombined
// into a single Sink, the third result (nil when there are none).
// mem.Memory uses this to route each flushed buffer to the block sinks
// while still delivering synchronously to everything else.
//
// The second result is always nil: it is kept only because perfbench's
// tests destructure three results, and goes with the next change to
// that module.
func SplitBlocks(s Sink) ([]BlockSink, []Sink, Sink) {
	flat := flatten(nil, []Sink{s})
	var blocks []BlockSink
	var rest Tee
	for _, leaf := range flat {
		if b, ok := leaf.(BlockSink); ok {
			blocks = append(blocks, b)
		} else {
			rest = append(rest, leaf)
		}
	}
	switch len(rest) {
	case 0:
		return blocks, nil, nil
	case 1:
		return blocks, nil, rest[0]
	default:
		return blocks, nil, rest
	}
}

type discardSink struct{}

func (discardSink) Ref(Ref)      {}
func (discardSink) Block(*Block) {}

// Discard is a Sink that drops every reference.
var Discard Sink = discardSink{}

// Tee fans a reference stream out to several sinks in order.
type Tee []Sink

// Ref implements Sink.
func (t Tee) Ref(r Ref) {
	for _, s := range t {
		s.Ref(r)
	}
}

// NewTee builds a Tee from the given sinks, recursively flattening
// nested Tees and dropping Discard and nil entries at any depth. If the
// result contains a single sink, that sink is returned directly; with
// none, Discard.
func NewTee(sinks ...Sink) Sink {
	flat := flatten(nil, sinks)
	switch len(flat) {
	case 0:
		return Discard
	case 1:
		return flat[0]
	}
	return flat
}

func flatten(dst Tee, sinks []Sink) Tee {
	for _, s := range sinks {
		switch v := s.(type) {
		case nil:
			continue
		case Tee:
			dst = flatten(dst, v)
		default:
			if s == Discard {
				continue
			}
			dst = append(dst, s)
		}
	}
	return dst
}

// Counter tallies references by kind and total bytes touched.
type Counter struct {
	Reads      uint64
	Writes     uint64
	BytesRead  uint64
	BytesWrote uint64
}

// Ref implements Sink.
func (c *Counter) Ref(r Ref) {
	if r.Kind == Write {
		c.Writes++
		c.BytesWrote += uint64(r.Size)
	} else {
		c.Reads++
		c.BytesRead += uint64(r.Size)
	}
}

// Block implements BlockSink: the tally needs only the kind and size
// columns, scanned in lockstep.
func (c *Counter) Block(b *Block) {
	// Local accumulators keep the loop in registers; the write counts
	// fall out of the totals, so only writes pay the per-row branch. A
	// run row contributes its whole count with two multiplies — the
	// tally is the same whichever way the run is delivered.
	var refs, writes, wroteBytes, totalBytes uint64
	if b.Runs == nil {
		for i, k := range b.Kinds {
			sz := uint64(b.Sizes[i])
			totalBytes += sz
			if k == Write {
				writes++
				wroteBytes += sz
			}
		}
		refs = uint64(len(b.Kinds))
	} else {
		for i, k := range b.Kinds {
			n := uint64(b.Runs[i])
			bytes := n * uint64(b.Sizes[i])
			refs += n
			totalBytes += bytes
			if k == Write {
				writes += n
				wroteBytes += bytes
			}
		}
	}
	c.Writes += writes
	c.BytesWrote += wroteBytes
	c.Reads += refs - writes
	c.BytesRead += totalBytes - wroteBytes
}

// Total returns the total number of references seen.
func (c *Counter) Total() uint64 { return c.Reads + c.Writes }

// Bytes returns the total number of bytes touched.
func (c *Counter) Bytes() uint64 { return c.BytesRead + c.BytesWrote }

// Reset zeroes the counter.
func (c *Counter) Reset() { *c = Counter{} }

// Filter forwards only references for which Keep returns true.
type Filter struct {
	Keep func(Ref) bool
	Next Sink
}

// Ref implements Sink.
func (f *Filter) Ref(r Ref) {
	if f.Keep(r) {
		f.Next.Ref(r)
	}
}

// Recorder appends every reference to an in-memory slice. It is intended
// for tests and small traces.
type Recorder struct {
	Refs []Ref
}

// Ref implements Sink. Recorder is deliberately not a BlockSink: it
// receives every reference synchronously even from batching producers,
// which is what tests interleaving recorded references with other
// events want.
func (rec *Recorder) Ref(r Ref) { rec.Refs = append(rec.Refs, r) }

// Reset clears the recorded references.
func (rec *Recorder) Reset() { rec.Refs = rec.Refs[:0] }
