package cache

// Per-set sharding of a Group: the cache-line stream of each block is
// partitioned by the low bits of the line number and the partitions are
// simulated by worker goroutines, one per shard, inside a single run.
//
// Why this is exact: a set-associative cache decomposes into completely
// independent sets — an access to set s reads and writes only set s's
// ways and the global counters. Every member config's set index is
// line & (sets-1), and the shard index is line & (nshards-1) with
// nshards ≤ the smallest member's set count, so the shard bits are a
// suffix of every member's set-index bits: two lines in different
// shards can never map to the same set of any member. Each worker
// therefore owns a disjoint slice of every cache's tag array, keeps its
// own access/miss/writeback counters and distinct-line set, and the
// totals are order-independent sums folded at Drain/Results time.
//
// Flush intervals are the one feature that breaks set independence (the
// flush trigger counts accesses across all sets), so StartShards
// refuses groups that use them. No-write-allocate and associativity are
// handled exactly.

const (
	// shardChunkLen is the number of line-stream entries staged per
	// shard before handing the chunk to its worker: large enough to
	// amortize the channel transfer, small enough to keep workers busy
	// while a block is still being routed.
	shardChunkLen = 2048

	// maxShards bounds the shard count; it also bounds how many low
	// line bits the partition consumes (min set count across the
	// paper's configs is 512, so 256 stays a strict suffix).
	maxShards = 256
)

// shardChunk is one unit of work: a slice of the packed line stream
// (line<<1|writeBit) with the per-entry collapsed access counts.
type shardChunk struct {
	lines  []uint64
	counts []uint32
}

// groupShard is one worker's state: its inbox, staging buffer (owned by
// the routing goroutine), and private counters.
type groupShard struct {
	g      *Group
	in     chan shardChunk
	staged shardChunk
	seen   *lineSet
	stats  []shardStats
}

type shardStats struct {
	accesses   uint64
	misses     uint64
	writebacks uint64
}

// StartShards switches the group to sharded simulation with up to n
// worker goroutines (rounded down to a power of two and clamped to the
// smallest member's set count and to an internal maximum). It must be
// called on a fresh group, before any references are delivered, and is
// a no-op when n < 2, when any member has a flush interval (the one
// feature that couples sets), or when the geometry leaves no line bits
// to partition on. It returns the number of shards actually started.
//
// While sharding is active all delivery paths (Ref, Refs, Block) route
// through the shard workers; reading results via Results or
// DistinctLines drains in-flight work first. Call Stop to join the
// workers and fold their counters into the member caches — the group
// must not receive further references after Stop.
func (g *Group) StartShards(n int) int {
	if g.shards != nil {
		panic("cache: StartShards called twice")
	}
	if !g.seen.empty() {
		panic("cache: StartShards on a group that has already seen references")
	}
	for _, c := range g.caches {
		if c.accesses != 0 {
			panic("cache: StartShards on a group that has already seen references")
		}
		if c.cfg.FlushInterval != 0 {
			return 0
		}
	}
	if g.lineShift == 0 {
		return 0
	}
	if n > maxShards {
		n = maxShards
	}
	for _, c := range g.caches {
		if sets := int(c.setMask + 1); n > sets {
			n = sets
		}
	}
	// Round down to a power of two so the shard index is a bit mask.
	for n&(n-1) != 0 {
		n &= n - 1
	}
	if n < 2 {
		return 0
	}
	g.shardMask = uint64(n - 1)
	g.chunkFree = make(chan shardChunk, 2*n)
	g.shards = make([]*groupShard, n)
	for i := range g.shards {
		s := &groupShard{
			g:      g,
			in:     make(chan shardChunk, 2),
			staged: newShardChunk(),
			seen:   newLineSet(g.lineShift),
			stats:  make([]shardStats, len(g.caches)),
		}
		g.shards[i] = s
		g.workersWG.Add(1)
		go s.run()
	}
	return n
}

func newShardChunk() shardChunk {
	return shardChunk{
		lines:  make([]uint64, 0, shardChunkLen),
		counts: make([]uint32, 0, shardChunkLen),
	}
}

// route partitions the decomposed line stream across the shard staging
// buffers, dispatching each buffer to its worker as it fills.
func (g *Group) route() {
	mask := g.shardMask
	counts := g.runCounts
	for j, e := range g.runLines {
		s := g.shards[(e>>1)&mask]
		s.staged.lines = append(s.staged.lines, e)
		s.staged.counts = append(s.staged.counts, counts[j])
		if len(s.staged.lines) == shardChunkLen {
			g.dispatch(s)
		}
	}
}

// dispatch hands the shard's staged chunk to its worker and replaces
// the staging buffer from the free pool.
func (g *Group) dispatch(s *groupShard) {
	if len(s.staged.lines) == 0 {
		return
	}
	g.pending.Add(1)
	s.in <- s.staged
	select {
	case ch := <-g.chunkFree:
		s.staged = shardChunk{lines: ch.lines[:0], counts: ch.counts[:0]}
	default:
		s.staged = newShardChunk()
	}
}

// Drain dispatches all staged work and blocks until every in-flight
// chunk has been processed, making the shard counters safe to read. It
// is a no-op when sharding is inactive, and the workers stay available
// for more references afterwards.
func (g *Group) Drain() {
	if g.shards == nil {
		return
	}
	for _, s := range g.shards {
		g.dispatch(s)
	}
	g.pending.Wait()
}

// Stop drains outstanding work, joins the shard workers and folds their
// counters into the member caches, returning the group to unsharded
// (single-goroutine) operation. It is idempotent. The shard workers'
// disjoint distinct-line partitions are merged back into the group's
// set, so the group may keep receiving references after Stop without
// double-counting lines it has already seen.
func (g *Group) Stop() {
	if g.shards == nil {
		return
	}
	for _, s := range g.shards {
		g.dispatch(s)
		close(s.in)
	}
	g.workersWG.Wait()
	for _, s := range g.shards {
		g.seen.merge(s.seen)
		for i := range g.caches {
			g.caches[i].accesses += s.stats[i].accesses
			g.caches[i].misses += s.stats[i].misses
			g.caches[i].writebacks += s.stats[i].writebacks
		}
	}
	g.shards = nil
	g.chunkFree = nil
}

// run is the worker loop: process chunks until the inbox closes,
// recycling chunk buffers through the free pool.
func (s *groupShard) run() {
	defer s.g.workersWG.Done()
	for ch := range s.in {
		s.process(ch)
		s.g.pending.Done()
		select {
		case s.g.chunkFree <- ch:
		default:
		}
	}
}

// process simulates one chunk of the shard's line stream against every
// member cache, touching only this shard's set partition of each tag
// array and only this shard's private counters.
func (s *groupShard) process(ch shardChunk) {
	for _, e := range ch.lines {
		s.seen.add(e >> 1)
	}
	for i, c := range s.g.caches {
		st := &s.stats[i]
		tags := c.tags
		if c.assoc == 1 && !c.cfg.NoWriteAllocate && len(tags) > 0 {
			// Direct mapped: the set mask is len(tags)-1, and deriving
			// it from the slice length drops the probe bounds check.
			mask := uint64(len(tags) - 1)
			for j, e := range ch.lines {
				st.accesses += uint64(ch.counts[j])
				// e is the packed tag (line<<1 | write): merge its dirty
				// bit on hit, install it verbatim on miss.
				set := (e >> 1) & mask
				t := tags[set]
				if t^e < 2 {
					tags[set] = t | e&dirtyBit
					continue
				}
				st.misses++
				if t != invalidTag && t&dirtyBit != 0 {
					st.writebacks++
				}
				tags[set] = e
			}
			continue
		}
		for j, e := range ch.lines {
			s.access(c, st, e>>1, e&1 != 0, uint64(ch.counts[j]))
		}
	}
}

// access is the general per-entry probe with shard-local counters: the
// same semantics as Cache.accessLine (minus flush intervals, which
// StartShards excludes) applied count times, where accesses 2..count
// are hits by the rleOK argument (and count is always 1 when the group
// could not collapse runs).
func (s *groupShard) access(c *Cache, st *shardStats, line uint64, write bool, count uint64) {
	st.accesses += count
	noFill := write && c.cfg.NoWriteAllocate
	packed := line << 1
	if write {
		packed |= dirtyBit
	}
	set := line & c.setMask
	if c.assoc == 1 {
		t := c.tags[set]
		if t^packed < 2 {
			c.tags[set] = t | packed&dirtyBit
			return
		}
		st.misses++
		if !noFill {
			if t != invalidTag && t&dirtyBit != 0 {
				st.writebacks++
			}
			c.tags[set] = packed
		}
		return
	}
	ways := c.tags[set*uint64(c.assoc) : (set+1)*uint64(c.assoc)]
	for i, t := range ways {
		if t^packed < 2 {
			t |= packed & dirtyBit
			copy(ways[1:i+1], ways[:i])
			ways[0] = t
			return
		}
	}
	st.misses++
	if !noFill {
		if lru := ways[len(ways)-1]; lru != invalidTag && lru&dirtyBit != 0 {
			st.writebacks++
		}
		copy(ways[1:], ways[:len(ways)-1])
		ways[0] = packed
	}
}
