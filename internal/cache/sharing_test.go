package cache

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mallocsim/internal/mem"
	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// shareOracle is the naive per-Ref reference implementation of the
// sharing protocol: plain maps keyed by line number, one transition per
// (reference, line) pair, no run folding, no paging, no caching. The
// attributor's bulk paths must reproduce its numbers exactly.
type shareOracle struct {
	lineSize uint64
	regionOf func(uint64) int
	owner    map[uint64]int
	holders  map[uint64]uint64
	written  map[uint64]uint64
	rows     map[[2]int][2]uint64
	ping     map[uint64]bool
	trueEv   uint64
	falseEv  uint64
}

func newShareOracle(lineSize uint64, regionOf func(uint64) int) *shareOracle {
	return &shareOracle{
		lineSize: lineSize,
		regionOf: regionOf,
		owner:    map[uint64]int{},
		holders:  map[uint64]uint64{},
		written:  map[uint64]uint64{},
		rows:     map[[2]int][2]uint64{},
		ping:     map[uint64]bool{},
	}
}

func (o *shareOracle) ref(r trace.Ref) {
	n := uint64(r.Size)
	if n == 0 {
		n = 1
	}
	end := r.Addr + n - 1
	if end < r.Addr {
		end = ^uint64(0)
	}
	first, last := r.Addr/o.lineSize, end/o.lineSize
	for line := first; ; line++ {
		base := line * o.lineSize
		lo, hi := r.Addr, end
		if lo < base {
			lo = base
		}
		if lineEnd := base + o.lineSize - 1; hi > lineEnd {
			hi = lineEnd
		}
		var mask uint64
		for w := mem.WordOf(lo - base); w <= mem.WordOf(hi-base); w++ {
			mask |= uint64(1) << w
		}
		o.line(line, mask, r.Kind == trace.Write, r.Tid)
		if line == last {
			return
		}
	}
}

func (o *shareOracle) line(line, mask uint64, write bool, tid uint8) {
	t := int(tid)
	bit := uint64(1) << t
	holders := o.holders[line]
	if write {
		if holders&bit == 0 && o.owner[line] != 0 {
			o.record(line, t, mask&o.written[line] != 0)
		}
		if o.owner[line] == t+1 && holders == bit {
			o.written[line] |= mask
		} else {
			o.written[line] = mask
		}
		o.owner[line] = t + 1
		o.holders[line] = bit
		return
	}
	if holders&bit == 0 {
		if o.owner[line] != 0 {
			o.record(line, t, mask&o.written[line] != 0)
		}
		o.holders[line] = holders | bit
	}
}

func (o *shareOracle) record(line uint64, tid int, isTrue bool) {
	o.ping[line] = true
	region := 0
	if o.regionOf != nil {
		if r := o.regionOf(line * o.lineSize); r > 0 {
			region = r
		}
	}
	row := o.rows[[2]int{region, tid}]
	if isTrue {
		o.trueEv++
		row[0]++
	} else {
		o.falseEv++
		row[1]++
	}
	o.rows[[2]int{region, tid}] = row
}

func (o *shareOracle) report() SharingReport {
	rep := SharingReport{True: o.trueEv, False: o.falseEv, PingLines: uint64(len(o.ping))}
	keys := make([][2]int, 0, len(o.rows))
	for k := range o.rows {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j][0] < keys[i][0] || (keys[j][0] == keys[i][0] && keys[j][1] < keys[i][1]) {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	if len(keys) > 0 {
		rep.Rows = make([]SharingRow, 0, len(keys))
	}
	for _, k := range keys {
		row := o.rows[k]
		rep.Rows = append(rep.Rows, SharingRow{Region: k[0], Tid: uint8(k[1]), True: row[0], False: row[1]})
	}
	return rep
}

// genTidBlocks builds contract-conforming blocks (the genBlock mix of
// plain, clamped, aligned-run, misaligned-run and zero-size rows) and
// stamps a tid column on most of them, leaving some without a column
// (all thread 0) to cover the nil-Tids path.
func genTidBlocks(seed uint64, n, rows, tids int) []*trace.Block {
	r := rng.New(seed)
	blocks := make([]*trace.Block, n)
	for i := range blocks {
		b := genBlock(r, rows)
		if i%4 != 3 {
			col := make([]uint8, b.Len())
			for j := range col {
				col[j] = uint8(r.Uint64n(uint64(tids)))
			}
			b.Tids = col
		}
		blocks[i] = b
	}
	return blocks
}

// testRegionOf carves the low address space into arbitrary 1 MB
// "regions" so the attribution rows exercise multiple region indices.
func testRegionOf(addr uint64) int { return int(addr >> 20) }

// TestSharingOracleEquivalence: both delivery tiers of the attributor —
// per-Ref, and columnar blocks with folded run rows — must reproduce
// the naive per-Ref oracle exactly, across line- and page-spanning
// refs, clamped top-of-address-space refs, multiple line sizes and
// several thread counts.
func TestSharingOracleEquivalence(t *testing.T) {
	for _, lineSize := range []uint64{32, 64, 128} {
		for _, tids := range []int{1, 2, 5, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				blocks := genTidBlocks(seed, 4, 512, tids)
				var refs []trace.Ref
				for _, b := range blocks {
					refs = b.AppendRefs(refs)
				}

				oracle := newShareOracle(lineSize, testRegionOf)
				for _, r := range refs {
					oracle.ref(r)
				}
				want := oracle.report()

				cfg := SharingConfig{LineSize: lineSize, RegionOf: testRegionOf}
				byRef := NewSharing(cfg)
				for _, r := range refs {
					byRef.Ref(r)
				}
				byBlock := NewSharing(cfg)
				for _, b := range blocks {
					byBlock.Block(b)
				}

				for name, s := range map[string]*Sharing{"ref": byRef, "block": byBlock} {
					if got := s.Report(); !reflect.DeepEqual(got, want) {
						t.Fatalf("line=%d tids=%d seed=%d: %s tier diverged from oracle:\ngot:  %+v\nwant: %+v",
							lineSize, tids, seed, name, got, want)
					}
				}
			}
		}
	}
}

// TestSharingSingleThreadSilent: a stream with no tid stamping can
// never ping-pong — thread 0 always holds its own lines.
func TestSharingSingleThreadSilent(t *testing.T) {
	s := NewSharing(SharingConfig{})
	for _, b := range genBlocks(3, 4, 512) {
		s.Block(b)
	}
	rep := s.Report()
	if rep.True != 0 || rep.False != 0 || rep.PingLines != 0 || len(rep.Rows) != 0 {
		t.Fatalf("single-threaded stream produced sharing events: %+v", rep)
	}
}

// TestSharingRejectsWideTids: holder masks have one bit per tid, so tid
// 64 would share tid 0's bit and its transfers would go uncounted. Ref
// and Block, plain and run rows, panic on it instead, naming the tid;
// tid 63, the last that fits, is an ordinary thread.
func TestSharingRejectsWideTids(t *testing.T) {
	write := trace.Ref{Addr: 64, Size: mem.WordSize, Kind: trace.Write}
	cases := []struct {
		name    string
		deliver func(s *Sharing, tid uint8)
	}{
		{"ref", func(s *Sharing, tid uint8) {
			s.Ref(write)
			s.Ref(trace.Ref{Addr: 64, Size: mem.WordSize, Tid: tid})
		}},
		{"block", func(s *Sharing, tid uint8) {
			b := &trace.Block{}
			b.Append(write)
			b.Append(trace.Ref{Addr: 64, Size: mem.WordSize, Tid: tid})
			s.Block(b)
		}},
		{"block-run", func(s *Sharing, tid uint8) {
			b := &trace.Block{}
			b.Append(write)
			b.AppendRunTid(64, mem.WordSize, trace.Read, 4, tid)
			s.Block(b)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSharing(SharingConfig{})
			c.deliver(s, 63)
			if got := s.Events(); got != 1 {
				t.Fatalf("tid 63 read of tid 0's line: %d events, want 1", got)
			}
			var msg string
			func() {
				defer func() { msg = fmt.Sprint(recover()) }()
				c.deliver(NewSharing(SharingConfig{}), 64)
			}()
			if !strings.Contains(msg, "tid 64") {
				t.Errorf("tid 64: recovered %q, want a panic naming tid 64", msg)
			}
		})
	}
}

// serverLayout builds a mem.Memory with a server pair's region layout —
// three allocator regions, eight 64 KB thread stacks and the globals —
// and one block that writes a run into every region as thread 0 and
// reads its first word back as thread 1, so a Sharing fires exactly one
// event per region.
func serverLayout(t testing.TB) (*mem.Memory, *trace.Block) {
	m := mem.New(nil, nil)
	for _, name := range []string{"heap", "info", "state"} {
		m.NewRegion(name, 0)
	}
	for i := 0; i < 8; i++ {
		m.NewRegion(fmt.Sprintf("stack%d", i), 64<<10)
	}
	m.NewRegion("globals", 0)
	b := &trace.Block{}
	for _, r := range m.Regions() {
		base, err := r.Sbrk(16 << 10)
		if err != nil {
			t.Fatal(err)
		}
		b.AppendRunTid(base, mem.WordSize, trace.Write, 64, 0)
		b.Append(trace.Ref{Addr: base, Size: mem.WordSize, Tid: 1})
		b.Append(trace.Ref{Addr: r.Brk() - mem.WordSize, Size: mem.WordSize, Kind: trace.Write, Tid: 2})
	}
	return m, b
}

// TestMultiRegionTablesStaySmall: a block touching every region of a
// server pair's layout must not grow tables with the highest region's
// address. A flat table indexed by line page reached ~8 MB of page
// pointers per table (Group's cold-line set, Sharing's coherence pages
// and its ping lines); the directory needs a few short span tables,
// next to the coherence pages themselves (8.5 KB per touched region).
func TestMultiRegionTablesStaySmall(t *testing.T) {
	m, b := serverLayout(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGroup(Config{Size: 4 << 10}, Config{Size: 16 << 10}, Config{Size: 64 << 10})
	s := NewSharing(SharingConfig{RegionOf: m.RegionIndex})
	g.Block(b)
	s.Block(b)
	runtime.ReadMemStats(&after)
	rep := s.Report()
	if n := len(m.Regions()); rep.False+rep.True != uint64(n) || len(rep.Rows) != n {
		t.Fatalf("want one event and one row per region (%d), got %+v", n, rep)
	}
	for i, row := range rep.Rows {
		if row.Region != i || row.Tid != 1 {
			t.Fatalf("row %d = %+v, want region %d, tid 1", i, row, i)
		}
	}
	if g.DistinctLines() == 0 {
		t.Fatal("group saw no lines")
	}
	const limit = 2 << 20
	pages := uint64(len(m.Regions())) * uint64(reflect.TypeOf(sharePage{}).Size())
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > limit {
		t.Fatalf("one multi-region block allocated %d bytes (coherence pages alone %d), want <= %d",
			alloc, pages, limit)
	}
	t.Logf("allocated %d bytes, %d of them coherence pages", alloc, pages)
}
