package cache

import (
	"fmt"
	"math/bits"

	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

// Sharing attributes cross-thread cache-line transfers. It models an
// invalidation-based coherence protocol at line granularity: each line
// remembers its last writer (owner), the set of threads holding a valid
// copy, and the word-granular footprint of the owner's writes. When a
// thread accesses a line it does not hold a copy of, and the line has
// been written before, the access suffers a coherence transfer — a
// sharing event. The event is *true* sharing when the accessed words
// intersect the words the remote owner wrote, and *false* sharing when
// they are disjoint (distinct words that merely cohabit one line — the
// placement artifact an allocator controls). Events are attributed per
// region×thread, the axis the server experiment tables report.
//
// Sharing implements trace.Sink and trace.BlockSink. Classification
// depends only on the reference values and their order, so deferred
// columnar delivery is sound. Like the other simulators it is not safe
// for concurrent use.
//
// Thread identities come from trace.Ref.Tid / trace.Block.Tids. Holder
// sets are 64-bit masks, so a tid must be below 64: Ref and Block panic
// on a larger one rather than let it share a holder bit with another
// thread (the server driver runs at most 63 threads). A workload that
// never stamps tids produces no events: every access comes from thread
// 0, which always holds its own lines.
type Sharing struct {
	lineShift uint
	lineSize  uint64
	regionOf  func(uint64) int

	pages mem.PageDir[sharePage] // per-line coherence state
	// counts holds one page of per-tid rows per region, indexed by
	// region: the zero directory gives each region its own span.
	counts    mem.PageDir[[maxTids]shareCount]
	pingLines *lineSet
	trueEv    uint64
	falseEv   uint64
}

// SharingConfig configures a Sharing attributor.
type SharingConfig struct {
	// LineSize is the coherence granularity in bytes: a power of two of
	// at most 64 machine words (so a line's word footprint fits one
	// mask). Defaults to the machine line size (32 bytes).
	LineSize uint64
	// RegionOf classifies an address into a small non-negative region
	// index for the attribution rows; nil, or a negative index,
	// attributes to region 0. It is consulted on every event, so it
	// should be O(1): mem.Memory.RegionIndex is.
	RegionOf func(addr uint64) int
}

// maxTids bounds the thread ids a Sharing accepts: one holder bit each.
const maxTids = 64

// sharePageShift is log2 of the lines one coherence page covers: 512
// lines in 8,704 bytes (1 + 8 + 8 bytes a line), an eighth of a lineSet
// page (dirPageShift). A server pair's lines scatter over its heap
// regions, thread stacks and globals, so at 4,096 lines a page most of
// its pages were nearly empty: a pair held 0.7–1.1 MB of coherence
// state at the golden scale, against about 0.2 MB at 512.
const sharePageShift = 9

const sharePageLines = 1 << sharePageShift

// sharePage holds the coherence state of 512 consecutive lines in
// parallel arrays. owner is the last writer's tid plus one (0 = never
// written); holders is the mask of tids with a valid copy; written is
// the word-granular footprint accumulated by the current owner while it
// was the line's sole holder.
type sharePage struct {
	owner   [sharePageLines]uint8
	holders [sharePageLines]uint64
	written [sharePageLines]uint64
}

// shareCount is one region×thread row's event counts.
type shareCount struct {
	trueEv  uint64
	falseEv uint64
}

// NewSharing builds a sharing attributor. It panics on invalid geometry
// (programmer error in experiment setup).
func NewSharing(cfg SharingConfig) *Sharing {
	if cfg.LineSize == 0 {
		cfg.LineSize = DefaultLineSize
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: sharing line size %d not a power of two", cfg.LineSize))
	}
	if mem.WordOf(cfg.LineSize) > 64 {
		panic(fmt.Sprintf("cache: sharing line size %d exceeds 64 words", cfg.LineSize))
	}
	shift := uint(bits.TrailingZeros64(cfg.LineSize))
	return &Sharing{
		lineShift: shift,
		lineSize:  cfg.LineSize,
		regionOf:  cfg.RegionOf,
		pages:     mem.NewPageDir[sharePage](shift + sharePageShift),
		pingLines: newLineSet(shift),
	}
}

// wordSpanMask returns the mask with word indices [w0, w1] set; both
// must be below 64 (guaranteed by the NewSharing geometry check).
func wordSpanMask(w0, w1 uint64) uint64 {
	return (^uint64(0) << w0) & (^uint64(0) >> (63 - w1))
}

// Ref implements trace.Sink. It panics on a tid of 64 or more.
func (s *Sharing) Ref(r trace.Ref) {
	if r.Tid >= maxTids {
		badTid(r.Tid)
	}
	s.access(r.Addr, r.Size, r.Kind, r.Tid)
}

// Block implements trace.BlockSink. Aligned run rows are folded to one
// protocol transition per line (equivalent to element-by-element
// delivery: only a line's first element can suffer the event, and the
// remaining elements only widen the sole-owner write footprint);
// contract-violating rows are expanded element by element. It panics on
// a tid of 64 or more.
func (s *Sharing) Block(b *trace.Block) {
	runs, tids := b.Runs, b.Tids
	for i, addr := range b.Addrs {
		var tid uint8
		if tids != nil {
			if tid = tids[i]; tid >= maxTids {
				badTid(tid)
			}
		}
		if runs != nil && runs[i] != 1 {
			s.runRow(addr, b.Sizes[i], b.Kinds[i], runs[i], tid)
			continue
		}
		s.access(addr, b.Sizes[i], b.Kinds[i], tid)
	}
}

// badTid reports a tid the holder masks cannot represent: the cold path
// of Ref and Block, kept out of line so they build no message
// themselves.
//
//go:noinline
func badTid(tid uint8) {
	panic(fmt.Sprintf("cache: sharing tid %d out of range: holder masks cover tids 0..%d", tid, maxTids-1))
}

// access applies one reference: every line it touches sees one protocol
// transition carrying the reference's word footprint within that line.
func (s *Sharing) access(addr uint64, size uint32, k trace.Kind, tid uint8) {
	first, last := span(addr, size, s.lineShift)
	n := uint64(size)
	if n == 0 {
		n = 1
	}
	end := addr + n - 1
	if end < addr {
		end = ^uint64(0)
	}
	write := k == trace.Write
	for line := first; ; line++ {
		base := line << s.lineShift
		lo, hi := addr, end
		if lo < base {
			lo = base
		}
		if lineEnd := base + s.lineSize - 1; hi > lineEnd {
			hi = lineEnd
		}
		m := wordSpanMask(mem.WordOf(lo-base), mem.WordOf(hi-base))
		s.accessLine(line, m, m, write, tid)
		if line == last {
			return
		}
	}
}

// runRow applies one run row. Aligned runs (power-of-two size dividing
// the line) take the closed form; anything else replays element by
// element through access.
func (s *Sharing) runRow(addr uint64, size uint32, k trace.Kind, n uint32, tid uint8) {
	if n == 0 {
		return
	}
	sz := uint64(size)
	if !runAligned(addr, sz, uint64(n), s.lineShift) {
		for ; n > 0; n-- {
			s.access(addr, size, k, tid)
			addr += sz
		}
		return
	}
	write := k == trace.Write
	end := addr + sz*uint64(n) - 1
	first, last := addr>>s.lineShift, end>>s.lineShift
	for line := first; ; line++ {
		base := line << s.lineShift
		lo, hi := addr, end
		if lo < base {
			lo = base
		}
		if lineEnd := base + s.lineSize - 1; hi > lineEnd {
			hi = lineEnd
		}
		update := wordSpanMask(mem.WordOf(lo-base), mem.WordOf(hi-base))
		// Only the line's first element can observe the event, so the
		// classification mask covers that element's words alone; the
		// update mask covers the whole run's footprint in the line.
		c1 := lo + sz - 1
		if c1 > hi {
			c1 = hi
		}
		classify := wordSpanMask(mem.WordOf(lo-base), mem.WordOf(c1-base))
		s.accessLine(line, classify, update, write, tid)
		if line == last {
			return
		}
	}
}

// accessLine runs one protocol transition: classify is the word mask an
// event (if any) is classified against, update the word mask a write
// deposits. For plain references the two coincide.
func (s *Sharing) accessLine(line, classify, update uint64, write bool, tid uint8) {
	p := s.pages.Lookup(line >> sharePageShift)
	i := line & (sharePageLines - 1)
	bit := uint64(1) << tid
	holders := p.holders[i]
	if write {
		if holders&bit == 0 && p.owner[i] != 0 {
			s.event(line, tid, classify&p.written[i] != 0)
		}
		if p.owner[i] == tid+1 && holders == bit {
			// Still the sole holder: the write footprint accumulates.
			p.written[i] |= update
		} else {
			p.written[i] = update
		}
		p.owner[i] = tid + 1
		p.holders[i] = bit
		return
	}
	if holders&bit == 0 {
		if p.owner[i] != 0 {
			s.event(line, tid, classify&p.written[i] != 0)
		}
		p.holders[i] = holders | bit
	}
}

// event records one coherence transfer — the cold path of accessLine
// (events are rare next to accesses, and a warm run's region×thread
// counters are already materialized).
func (s *Sharing) event(line uint64, tid uint8, isTrue bool) {
	s.pingLines.add(line)
	region := 0
	if s.regionOf != nil {
		region = max(s.regionOf(line<<s.lineShift), 0)
	}
	c := &s.counts.Lookup(uint64(region))[tid]
	if isTrue {
		s.trueEv++
		c.trueEv++
	} else {
		s.falseEv++
		c.falseEv++
	}
}

// SharingRow is one attribution row: sharing events suffered by thread
// Tid on lines of region Region (the index SharingConfig.RegionOf
// assigned).
type SharingRow struct {
	Region int
	Tid    uint8
	True   uint64
	False  uint64
}

// SharingReport is the attributor's end-of-run summary.
type SharingReport struct {
	// Rows are the region×thread attribution rows, sorted by (Region,
	// Tid).
	Rows []SharingRow
	// True and False are the stream-wide event totals.
	True  uint64
	False uint64
	// PingLines is the number of distinct lines that suffered at least
	// one transfer — the "ping-pong lines" the server tables report.
	PingLines uint64
}

// Events returns the total number of sharing events recorded.
func (s *Sharing) Events() uint64 { return s.trueEv + s.falseEv }

// Report assembles the end-of-run summary. O(regions); call it after
// the stream is flushed.
func (s *Sharing) Report() SharingReport {
	var rows []SharingRow
	s.counts.Each(func(region uint64, c *[maxTids]shareCount) {
		for tid, n := range c {
			if n.trueEv+n.falseEv != 0 {
				rows = append(rows, SharingRow{Region: int(region), Tid: uint8(tid), True: n.trueEv, False: n.falseEv})
			}
		}
	})
	return SharingReport{
		Rows:      rows,
		True:      s.trueEv,
		False:     s.falseEv,
		PingLines: s.pingLines.distinct(),
	}
}
