// Package cache implements the data-cache simulators used to reproduce
// the paper's cache-locality experiments.
//
// The paper simulates direct-mapped caches with 32-byte blocks at sizes
// from 16 KB to 256 KB (a modified Tycho simulator consuming Pixie
// traces). This package provides the same model — a direct-mapped
// simulator — plus an N-way set-associative LRU simulator as an
// extension (the paper cites Wilson's associativity studies as related
// work), and a Group that feeds one reference stream to many
// configurations in a single pass.
//
// Only data references are simulated; the paper assumes a 0% instruction
// cache miss rate, making its (and our) execution-time predictions
// conservative.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

// DefaultLineSize is the paper's cache block size (32 bytes).
const DefaultLineSize = mem.LineSize

// Config describes one cache to simulate.
type Config struct {
	// Size is the total capacity in bytes. Must be a power of two and a
	// multiple of LineSize*Assoc.
	Size uint64
	// LineSize is the block size in bytes: a power of two no smaller
	// than mem.WordSize. Defaults to 32.
	LineSize uint64
	// Assoc is the set associativity; 1 (direct-mapped) if zero.
	Assoc int
	// NoWriteAllocate makes write misses bypass the cache (counted as
	// misses but not filling a line). The default is write-allocate,
	// matching the paper's Tycho configuration.
	NoWriteAllocate bool
	// FlushInterval, when non-zero, invalidates the whole cache every
	// that many line accesses, modelling context-switch interference —
	// the effect the paper's §3.2 deliberately excludes ("we
	// intentionally avoid introducing the effects of intermittent cache
	// flushes") and that Mogul & Borg quantify.
	FlushInterval uint64
}

func (c Config) withDefaults() Config {
	if c.LineSize == 0 {
		c.LineSize = DefaultLineSize
	}
	if c.Assoc == 0 {
		c.Assoc = 1
	}
	return c
}

// String renders e.g. "64K/32B direct-mapped" or "16K/32B 4-way".
func (c Config) String() string {
	c = c.withDefaults()
	assoc := "direct-mapped"
	if c.Assoc > 1 {
		assoc = fmt.Sprintf("%d-way", c.Assoc)
	}
	return fmt.Sprintf("%s/%dB %s", sizeStr(c.Size), c.LineSize, assoc)
}

func sizeStr(n uint64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Validate checks the configuration's geometry — the same invariants
// New enforces by panicking — and returns a descriptive error for the
// first violation. Use it to reject externally supplied configurations
// (job specs arriving over the network) before they reach New, where a
// bad geometry is treated as a programmer error.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	if c.LineSize < mem.WordSize {
		return fmt.Errorf("cache: line size %d smaller than the %d-byte word", c.LineSize, mem.WordSize)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity must be >= 1")
	}
	lines := c.Size / c.LineSize
	if lines == 0 || c.Size%c.LineSize != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.Size, c.LineSize)
	}
	sets := lines / uint64(c.Assoc)
	if sets == 0 || lines%uint64(c.Assoc) != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Cache simulates a single cache configuration. It is a plain
// trace.Sink, taking one reference at a time: the unbatched tools and
// the Hierarchy and VictimCache models use it directly, while a batched
// pipeline wraps its caches in a Group (one member is enough) to take
// columnar blocks. The zero value is not usable; call New.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	// tags holds, per set, assoc line tags maintained in LRU order
	// (index 0 = most recently used). invalidTag marks empty ways;
	// valid tags are packed as line<<1 | dirty — the same packing as the
	// group's fused line entries (line<<1 | writeBit), so the hot hit
	// test is a single XOR: t^packed < 2 iff same line, and
	// invalidTag can never satisfy it (Validate holds lines to at least
	// a word, so line numbers fit in 62 bits and packed tags in 63).
	tags []uint64

	accesses   uint64
	misses     uint64
	writebacks uint64
}

const (
	invalidTag = ^uint64(0)
	dirtyBit   = uint64(1)
)

// New builds a cache simulator for cfg. It panics on invalid geometry
// (these are programmer errors in experiment setup); validate untrusted
// configurations with Config.Validate first.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	lines := cfg.Size / cfg.LineSize
	sets := lines / uint64(cfg.Assoc)
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   sets - 1,
		assoc:     cfg.Assoc,
		tags:      make([]uint64, lines),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Config returns the cache's configuration (with defaults applied).
func (c *Cache) Config() Config { return c.cfg }

// span returns the first and last line numbers touched by a reference,
// clamping spans that would wrap the 64-bit address space (Addr+Size-1
// overflowing) to the top line so iteration always terminates.
func span(addr uint64, size uint32, shift uint) (first, last uint64) {
	n := uint64(size)
	if n == 0 {
		n = 1
	}
	end := addr + n - 1
	if end < addr {
		end = ^uint64(0)
	}
	return addr >> shift, end >> shift
}

// Ref implements trace.Sink. A reference spanning multiple lines counts
// as one access per line touched.
func (c *Cache) Ref(r trace.Ref) {
	first, last := span(r.Addr, r.Size, c.lineShift)
	write := r.Kind == trace.Write
	if first == last {
		// Single-line references dominate real traces (word accesses
		// within a 32-byte line); skip the span loop entirely.
		c.accessLine(first, write)
		return
	}
	for line := first; ; line++ {
		c.accessLine(line, write)
		if line == last {
			break
		}
	}
}

func (c *Cache) accessLine(line uint64, write bool) {
	c.accesses++
	if c.cfg.FlushInterval != 0 && c.accesses%c.cfg.FlushInterval == 0 {
		c.invalidate()
	}
	noFill := write && c.cfg.NoWriteAllocate
	packed := line << 1
	if write {
		packed |= dirtyBit
	}
	set := line & c.setMask
	if c.assoc == 1 {
		// Direct-mapped fast path.
		t := c.tags[set]
		if t^packed < 2 {
			c.tags[set] = t | packed&dirtyBit
			return
		}
		c.misses++
		if !noFill {
			if t != invalidTag && t&dirtyBit != 0 {
				c.writebacks++
			}
			c.tags[set] = packed
		}
		return
	}
	ways := c.tags[set*uint64(c.assoc) : (set+1)*uint64(c.assoc)]
	for i, t := range ways {
		if t^packed < 2 {
			// Hit: move to front (LRU order maintenance).
			t |= packed & dirtyBit
			copy(ways[1:i+1], ways[:i])
			ways[0] = t
			return
		}
	}
	// Miss: evict LRU (last way), insert at front.
	c.misses++
	if !noFill {
		if lru := ways[len(ways)-1]; lru != invalidTag && lru&dirtyBit != 0 {
			c.writebacks++
		}
		copy(ways[1:], ways[:len(ways)-1])
		ways[0] = packed
	}
}

func (c *Cache) invalidate() {
	for i := range c.tags {
		if t := c.tags[i]; t != invalidTag && t&dirtyBit != 0 {
			c.writebacks++
		}
		c.tags[i] = invalidTag
	}
}

// Accesses returns the number of line accesses simulated.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of misses.
func (c *Cache) Misses() uint64 { return c.misses }

// Writebacks returns the number of dirty lines evicted (write-back bus
// traffic beyond line fills). Invalidations (Reset, FlushInterval) also
// write dirty lines back.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// MissRate returns misses/accesses, or 0 when empty.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	c.invalidate()
	c.accesses = 0
	c.misses = 0
	c.writebacks = 0
}

// Result summarizes one simulated cache after a run.
type Result struct {
	Config   Config
	Accesses uint64
	Misses   uint64
	// ColdLines is the number of distinct lines referenced during the
	// run; the first access to each necessarily misses in any cache, so
	// this is the cold-miss count (identical across configurations).
	ColdLines uint64
}

// MissRate returns the overall miss ratio.
func (r Result) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// ConflictMisses returns misses beyond the cold (compulsory) misses.
func (r Result) ConflictMisses() uint64 {
	if r.Misses < r.ColdLines {
		return 0
	}
	return r.Misses - r.ColdLines
}

// lineSet tracks distinct line numbers with a sparse paged bitset:
// 4096-line (512-byte) pages in a mem.PageDir, allocated on demand.
// Compared with map[uint64]struct{} this replaces a hash+insert per
// line access with a shift, an array index and a bit test, and shrinks
// the footprint from ~48 bytes to one bit per distinct line.
type lineSet struct {
	dir mem.PageDir[lineSetPage]
}

// dirPageShift is log2 of the lines one lineSet page covers (Sharing's
// coherence pages use their own, sharePageShift).
const dirPageShift = 12

type lineSetPage [1 << (dirPageShift - 6)]uint64

// newLineSet returns an empty set of 1<<lineShift-byte lines.
func newLineSet(lineShift uint) *lineSet {
	return &lineSet{dir: mem.NewPageDir[lineSetPage](lineShift + dirPageShift)}
}

// add marks line as seen. The distinct count is not maintained here —
// the unconditional OR keeps the per-access cost at a shift, an index
// and a store; distinct() recovers the count by popcount when a reader
// (end-of-run results, a sample capture) actually wants it.
func (s *lineSet) add(line uint64) {
	p := s.dir.Lookup(line >> dirPageShift)
	p[(line>>6)&(uint64(len(p))-1)] |= uint64(1) << (line & 63)
}

// addRange marks every line in [first, last] as seen — equivalent to
// calling add on each, but setting whole 64-bit bitmap words at a time,
// so a contiguous run of lines costs O(words) instead of O(lines).
func (s *lineSet) addRange(first, last uint64) {
	for line := first; ; {
		idx := line >> dirPageShift
		p := s.dir.Lookup(idx)
		end := (idx+1)<<dirPageShift - 1
		if end > last {
			end = last
		}
		wFirst := (line >> 6) & (uint64(len(p)) - 1)
		wLast := (end >> 6) & (uint64(len(p)) - 1)
		loMask := ^uint64(0) << (line & 63)
		hiMask := ^uint64(0) >> (63 - end&63)
		if wFirst == wLast {
			p[wFirst] |= loMask & hiMask
		} else {
			p[wFirst] |= loMask
			for w := wFirst + 1; w < wLast; w++ {
				p[w] = ^uint64(0)
			}
			p[wLast] |= hiMask
		}
		if end == last {
			return
		}
		line = end + 1
	}
}

// distinct counts the set bits across all pages: the number of distinct
// lines added. O(allocated pages), called only from result assembly.
func (s *lineSet) distinct() uint64 {
	var n uint64
	s.dir.Each(func(_ uint64, p *lineSetPage) {
		for _, w := range p {
			n += uint64(bits.OnesCount64(w))
		}
	})
	return n
}

// Group feeds one reference stream to several cache configurations and
// tracks the distinct-line (cold miss) count once for all of them. It
// implements trace.Sink and trace.BlockSink. Ref splits each reference
// into lines and probes every member line by line; it serves unbatched
// pipelines, where a mem.Memory without SetBatching delivers one
// reference at a time (examples/custom). Block has two paths that
// produce the same counters as Ref:
//
//   - On a fused group (every member direct mapped, write-allocate, no
//     flush interval: the paper's configuration) it runs fusedScan,
//     which probes every member as each collapsed line run closes.
//   - On any other group it hands every reference of the block, run
//     rows expanded in place, to Ref.
//
// A one-member Group is how a batched pipeline feeds a lone cache.
type Group struct {
	caches []*Cache
	// seen tracks distinct line numbers (the shared cold-miss count).
	seen      *lineSet
	lineShift uint
	// fused is true when every member is a plain direct-mapped
	// write-allocate cache with no flush interval — the paper's exact
	// configuration — letting accessLine run one fused loop over the
	// members' tag arrays instead of a call per cache, and Block run
	// fusedScan.
	fused bool

	// probes is fusedScan's flattened view of the member caches — tag
	// array, scan-local miss/writeback accumulators and the member's
	// index side by side in one contiguous array — so the per-line
	// probe loop touches no per-cache structs. Ordered by ascending set
	// count (probeOrder) so probeEntry can stop a read probe at the
	// first hit. Refreshed at every scan; nil unless fused.
	probes []fusedProbe
	// probeOrder holds the member indices sorted by ascending set
	// count (stable, so equal-sized members keep config order).
	probeOrder []int
}

// ValidateGroup checks the rules NewGroup enforces by panicking — at
// least one configuration, each valid, all sharing one line size — and
// returns a descriptive error for the first violation. Like
// Config.Validate it builds no tag arrays, so it is cheap on untrusted
// cache lists of any size.
func ValidateGroup(cfgs ...Config) error {
	if len(cfgs) == 0 {
		return errors.New("cache: empty group")
	}
	lineSize := cfgs[0].withDefaults().LineSize
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return err
		}
		if ls := cfg.withDefaults().LineSize; ls != lineSize {
			return fmt.Errorf("cache: group configs must share a line size (config %d has %d, config 0 has %d)", i, ls, lineSize)
		}
	}
	return nil
}

// NewGroup builds a group over the given configurations, which must
// pass ValidateGroup (the paper's experiments all use 32-byte lines).
func NewGroup(cfgs ...Config) *Group {
	if err := ValidateGroup(cfgs...); err != nil {
		panic(err.Error())
	}
	g := &Group{fused: true}
	for i, cfg := range cfgs {
		c := New(cfg)
		if i == 0 {
			g.lineShift = c.lineShift
		}
		if c.assoc != 1 || c.cfg.NoWriteAllocate || c.cfg.FlushInterval != 0 {
			g.fused = false
		}
		g.caches = append(g.caches, c)
	}
	g.seen = newLineSet(g.lineShift)
	if g.fused {
		g.probes = make([]fusedProbe, len(g.caches))
		g.probeOrder = make([]int, len(g.caches))
		for i := range g.probeOrder {
			g.probeOrder[i] = i
		}
		sort.SliceStable(g.probeOrder, func(a, b int) bool {
			return g.caches[g.probeOrder[a]].setMask < g.caches[g.probeOrder[b]].setMask
		})
	}
	return g
}

// fusedProbe is one member's state in fusedScan's probe loop.
type fusedProbe struct {
	tags               []uint64
	idx                int // index of the member cache in g.caches
	misses, writebacks uint64
}

// Ref implements trace.Sink. The line decomposition is done once here —
// every member cache shares the group's line size, so each gets the
// pre-split line number instead of redoing the shift/mask work.
func (g *Group) Ref(r trace.Ref) {
	first, last := span(r.Addr, r.Size, g.lineShift)
	write := r.Kind == trace.Write
	if first == last {
		g.accessLine(first, write)
		return
	}
	for line := first; ; line++ {
		g.accessLine(line, write)
		if line == last {
			break
		}
	}
}

func (g *Group) accessLine(line uint64, write bool) {
	g.seen.add(line)
	if g.fused {
		// Every member is plain direct-mapped write-allocate: run the
		// direct-mapped fast path inline over all tag arrays, skipping
		// the per-cache call and its feature branches.
		packed := line << 1
		if write {
			packed |= dirtyBit
		}
		for _, c := range g.caches {
			c.accesses++
			set := line & c.setMask
			t := c.tags[set]
			if t^packed < 2 {
				c.tags[set] = t | packed&dirtyBit
				continue
			}
			c.misses++
			if t != invalidTag && t&dirtyBit != 0 {
				c.writebacks++
			}
			c.tags[set] = packed
		}
		return
	}
	for _, c := range g.caches {
		c.accessLine(line, write)
	}
}

// Block implements trace.BlockSink: a fused group scans the block in
// one pass (fusedScan); any other group takes every reference of the
// block through Ref, expanding run rows element by element in row
// order, as trace.Block.AppendRefs does.
func (g *Group) Block(b *trace.Block) {
	if g.fused {
		g.fusedScan(b)
		return
	}
	runs := b.Runs
	for i := range b.Addrs {
		r := b.At(i)
		n := uint32(1)
		if runs != nil {
			n = runs[i]
		}
		for ; n > 0; n-- {
			g.Ref(r)
			r.Addr += uint64(r.Size)
		}
	}
}

// runAligned reports whether one run row decomposes in closed form: the
// element size must be a nonzero power of two no larger than the line
// size (hence a divisor of it), the start address a multiple of it — so
// no element spans a line boundary and per-line element counts are
// exact quotients — and the run must not wrap the 64-bit address space.
// Producers honouring the Block contract only emit such rows; anything
// else is expanded element by element in place.
func runAligned(addr, sz, n uint64, shift uint) bool {
	return sz != 0 && sz&(sz-1) == 0 && sz <= uint64(1)<<shift &&
		addr&(sz-1) == 0 && sz*n-1 <= ^uint64(0)-addr
}

// fusedScan is Block's single-pass path for an all-direct-mapped
// write-allocate group: consecutive accesses to one line collapse into
// one entry, and each entry probes every member the moment it closes,
// so the block never materializes an intermediate line stream. The
// probe order and all counter updates match per-reference delivery
// exactly.
func (g *Group) fusedScan(b *trace.Block) {
	seen := g.seen
	caches := g.caches
	shift := g.lineShift
	runs := b.Runs
	// Refresh the flattened probe view and zero the scan-local
	// counters. The view is ordered smallest member first so probeEntry
	// can early-exit read probes on the inclusion property.
	for i, k := range g.probeOrder {
		g.probes[i] = fusedProbe{tags: caches[k].tags, idx: k}
	}
	var total uint64
	var cur uint64
	have := false
	for i, addr := range b.Addrs {
		// Kind is 0 for reads and 1 for writes: the packed write bit
		// is the kind itself (masked so a malformed kind cannot reach
		// the line bits).
		w := uint64(b.Kinds[i]) & 1
		if runs != nil && runs[i] != 1 {
			n := uint64(runs[i])
			if n == 0 {
				continue
			}
			sz := uint64(b.Sizes[i])
			if !runAligned(addr, sz, n, shift) {
				// Contract-violating run row: expand it element by
				// element through the span path (preserving order and
				// the current collapse state).
				for ; n > 0; n-- {
					first, last := span(addr, b.Sizes[i], shift)
					total += last - first + 1
					for line := first; ; line++ {
						if have && cur>>1 == line {
							cur |= w
						} else {
							if have {
								g.probeEntry(cur)
							}
							cur, have = line<<1|w, true
						}
						if line == last {
							break
						}
					}
					addr += sz
				}
				continue
			}
			// Aligned run row: every element lies within one line, so
			// the row is n single-line accesses walking lines
			// first..last contiguously. Only the line transitions cost
			// probes; the n accesses are part of the bulk total, and
			// the distinct-line set takes the whole range in one call
			// (re-adding the first line on a merge is an idempotent OR).
			total += n
			first := addr >> shift
			last := (addr + sz*n - 1) >> shift
			seen.addRange(first, last)
			if have && cur>>1 == first {
				cur |= w
			} else {
				if have {
					g.probeEntry(cur)
				}
				cur, have = first<<1|w, true
			}
			if first != last {
				// Lines first..last-1 all close here: probe the first
				// (whose entry may carry a merged-in write bit), then
				// the interior lines in order. The last line stays
				// open for merging.
				g.probeEntry(cur)
				g.probeRun((first+1)<<1|w, last-first-1)
				cur = last<<1 | w
			}
			continue
		}
		first, last := span(addr, b.Sizes[i], shift)
		total += last - first + 1
		if first == last {
			if have && cur>>1 == first {
				cur |= w
				continue
			}
			if have {
				g.probeEntry(cur)
			}
			cur, have = first<<1|w, true
			continue
		}
		for line := first; ; line++ {
			if have && cur>>1 == line {
				cur |= w
			} else {
				if have {
					g.probeEntry(cur)
				}
				cur, have = line<<1|w, true
			}
			if line == last {
				break
			}
		}
	}
	if have {
		g.probeEntry(cur)
	}
	for _, c := range caches {
		c.accesses += total
	}
	for i := range g.probes {
		p := &g.probes[i]
		caches[p.idx].misses += p.misses
		caches[p.idx].writebacks += p.writebacks
	}
}

// probeEntry probes one closed line entry against every member,
// smallest first, exploiting the inclusion property of nested
// direct-mapped caches: a larger member's set index refines a smaller
// member's (both are low-bit masks of the line number), so a line's
// congruence class in the large cache is a subset of its class in the
// small cache — if the line was its class's most recent access in the
// small cache it certainly was in the subclass, hence resident in the
// large cache too. Consequences used here:
//
//   - A read hit at any level implies hits at every larger level,
//     where a read hit changes no state (no LRU, no dirty merge) — the
//     probe stops at the first hit.
//   - Dirty state is inclusive as well (the write that dirtied a line
//     in a small member hit — and dirtied — it in every larger one),
//     so a write hit on an already-dirty line stops the same way.
//   - A hit at the smallest level means the line was installed by an
//     earlier access, which already recorded it in the distinct-line
//     set — only a miss at the smallest level needs seen.add.
//
// The shortcuts assume every member has seen the same access stream,
// which Group guarantees: its members are reachable only through its
// sink interface. Probes happen in line-close order, so
// each member's counters and tag state are identical to the unfused
// per-reference simulation. Accesses are charged in bulk by fusedScan.
func (g *Group) probeEntry(e uint64) {
	probes := g.probes
	if e&dirtyBit == 0 {
		for k := range probes {
			p := &probes[k]
			tags := p.tags
			if len(tags) == 0 {
				continue
			}
			// Direct mapped: the set mask is len(tags)-1, and deriving
			// it from the length drops the bounds check.
			set := (e >> 1) & uint64(len(tags)-1)
			t := tags[set]
			if t^e < 2 {
				return // read hit: every larger member hits, no-op
			}
			p.misses++
			if t != invalidTag && t&dirtyBit != 0 {
				p.writebacks++
			}
			tags[set] = e
			if k == 0 {
				g.seen.add(e >> 1)
			}
		}
		return
	}
	for k := range probes {
		p := &probes[k]
		tags := p.tags
		if len(tags) == 0 {
			continue
		}
		set := (e >> 1) & uint64(len(tags)-1)
		t := tags[set]
		if t^e < 2 {
			if t&dirtyBit != 0 {
				return // dirty hit: the rest are dirty hits, no-op
			}
			tags[set] = t | dirtyBit
			continue
		}
		p.misses++
		if t != invalidTag && t&dirtyBit != 0 {
			p.writebacks++
		}
		tags[set] = e
		if k == 0 {
			g.seen.add(e >> 1)
		}
	}
}

// probeRun probes n consecutive closed line entries starting at e0
// (packed stride 2). Callers have already range-added the lines to the
// distinct-line set, so the per-entry add on a smallest-level miss is
// an idempotent re-add.
func (g *Group) probeRun(e0, n uint64) {
	for ; n > 0; n-- {
		g.probeEntry(e0)
		e0 += 2
	}
}

// DistinctLines returns the number of distinct cache lines referenced.
func (g *Group) DistinctLines() uint64 { return g.seen.distinct() }

// Results summarizes every member cache.
func (g *Group) Results() []Result {
	out := make([]Result, len(g.caches))
	cold := g.DistinctLines()
	for i, c := range g.caches {
		out[i] = Result{Config: c.cfg, Accesses: c.accesses, Misses: c.misses, ColdLines: cold}
	}
	return out
}
