package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

// update rewrites testdata/streams.json from the current drivers. The
// fixture is the oracle for refactors of the drivers, which must leave
// every stream unchanged, so regenerate it only for an intended change
// to the workload model:
//
//	go test ./internal/workload -run TestDriverStreamsPinned -update
var update = flag.Bool("update", false, "rewrite testdata/streams.json from current output")

// Stream-pin parameters: every catalog program and the server scenario
// against every registered allocator, small enough to run in seconds.
const (
	streamScale       = 1024
	streamSeed        = 1
	streamSampleEvery = 256
)

func streamsPath() string { return filepath.Join("testdata", "streams.json") }

// rowHasher is a block sink that folds every flushed row — address,
// size, kind, run length and tid — into a SHA-256 digest.
type rowHasher struct {
	h    hash.Hash
	buf  []byte
	rows uint64
	refs uint64
}

func newRowHasher() *rowHasher { return &rowHasher{h: sha256.New()} }

func (r *rowHasher) row(addr uint64, size uint32, k trace.Kind, run uint32, tid uint8) {
	r.buf = binary.LittleEndian.AppendUint64(r.buf, addr)
	r.buf = binary.LittleEndian.AppendUint32(r.buf, size)
	r.buf = append(r.buf, byte(k))
	r.buf = binary.LittleEndian.AppendUint32(r.buf, run)
	r.buf = append(r.buf, tid)
	r.rows++
	r.refs += uint64(run)
}

func (r *rowHasher) Ref(ref trace.Ref) {
	r.row(ref.Addr, ref.Size, ref.Kind, 1, ref.Tid)
	r.h.Write(r.buf)
	r.buf = r.buf[:0]
}

func (r *rowHasher) Block(b *trace.Block) {
	for i := range b.Addrs {
		run := uint32(1)
		if b.Runs != nil {
			run = b.Runs[i]
		}
		var tid uint8
		if b.Tids != nil {
			tid = b.Tids[i]
		}
		r.row(b.Addrs[i], b.Sizes[i], b.Kinds[i], run, tid)
	}
	r.h.Write(r.buf)
	r.buf = r.buf[:0]
}

// streamRun is one pinned run: the digest of its flushed rows, its
// per-domain instruction totals and its full Stats.
type streamRun struct {
	Run    string `json:"run"`
	Rows   uint64 `json:"rows"`
	Refs   uint64 `json:"refs"`
	SHA256 string `json:"sha256"`
	App    uint64 `json:"app"`
	Malloc uint64 `json:"malloc"`
	Free   uint64 `json:"free"`
	Stats  Stats  `json:"stats"`
}

// pinLane is one allocator on a batched memory whose sink hashes every
// flushed row.
type pinLane struct {
	alloc string
	h     *rowHasher
	meter *cost.Meter
	m     *mem.Memory
	a     alloc.Allocator
}

// newPinLane builds a lane for allocName; a non-zero limit caps the
// memory's unlimited regions (mem.Memory.DefaultRegionLimit).
func newPinLane(t *testing.T, allocName string, limit uint64) *pinLane {
	t.Helper()
	l := &pinLane{alloc: allocName, h: newRowHasher(), meter: &cost.Meter{}}
	l.m = mem.New(l.h, l.meter)
	l.m.DefaultRegionLimit = limit
	l.m.SetBatching(0)
	a, err := alloc.New(allocName, l.m)
	if err != nil {
		t.Fatal(err)
	}
	l.a = a
	return l
}

// pin flushes the lane and fingerprints its run of the named driver.
func (l *pinLane) pin(name string, stats Stats) streamRun {
	l.m.Flush()
	snap := l.meter.Snapshot()
	return streamRun{
		Run:    name + "/" + l.alloc,
		Rows:   l.h.rows,
		Refs:   l.h.refs,
		SHA256: hex.EncodeToString(l.h.h.Sum(nil)),
		App:    snap.App,
		Malloc: snap.Malloc,
		Free:   snap.Free,
		Stats:  stats,
	}
}

// pinRun runs one driver into a batched row hasher and fingerprints it.
func pinRun(t *testing.T, name, allocName string, drive func(*mem.Memory, alloc.Allocator) (Stats, error)) streamRun {
	t.Helper()
	l := newPinLane(t, allocName, 0)
	stats, err := drive(l.m, l.a)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, allocName, err)
	}
	return l.pin(name, stats)
}

// pinBundle runs prog once as a bundle of the given lanes and returns
// each lane's fingerprint and error.
func pinBundle(prog Program, lanes []*pinLane) ([]streamRun, []error) {
	in := make([]Lane, len(lanes))
	for i, l := range lanes {
		in[i] = Lane{Mem: l.m, Alloc: l.a}
	}
	stats, errs := RunBundle(context.Background(), in, streamConfig(prog))
	out := make([]streamRun, len(lanes))
	for i, l := range lanes {
		out[i] = l.pin(prog.Name, stats[i])
	}
	return out, errs
}

func streamConfig(prog Program) Config {
	return Config{Program: prog, Scale: streamScale, Seed: streamSeed, SampleEvery: streamSampleEvery}
}

// pinStreams runs every catalog program and the server scenario against
// every registered allocator.
func pinStreams(t *testing.T) []streamRun {
	t.Helper()
	var out []streamRun
	scen, ok := ServerByName("server")
	if !ok {
		t.Fatal("no server scenario in the catalog")
	}
	for _, allocName := range alloc.Names() {
		for _, p := range Programs() {
			out = append(out, pinRun(t, p.Name, allocName, func(m *mem.Memory, a alloc.Allocator) (Stats, error) {
				return Run(m, a, streamConfig(p))
			}))
		}
		out = append(out, pinRun(t, scen.Name, allocName, func(m *mem.Memory, a alloc.Allocator) (Stats, error) {
			return RunServerContext(context.Background(), m, a, ServerRunConfig{Scenario: scen, Scale: streamScale, Seed: streamSeed})
		}))
	}
	return out
}

// encodeStreams writes one run per line, so a changed stream shows up
// as a one-line diff.
func encodeStreams(t *testing.T, runs []streamRun) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range runs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		if i < len(runs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestDriverStreamsPinned pins the reference stream, the instruction
// totals and the Stats of every driver run — each catalog program and
// the server scenario against every registered allocator — to
// testdata/streams.json. The two drivers must hand every allocator the
// same application behaviour across refactors; any difference here is
// a changed workload, even where the paper tables happen not to move.
// The bundle pass runs each program once for all allocators at once
// (RunBundle), and every lane must match its lone run's row.
func TestDriverStreamsPinned(t *testing.T) {
	got := pinStreams(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(streamsPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamsPath(), encodeStreams(t, got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %d runs in %s", len(got), streamsPath())
		return
	}
	raw, err := os.ReadFile(streamsPath())
	if err != nil {
		t.Fatalf("%v (record the fixture with -update)", err)
	}
	var want []streamRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", streamsPath(), err)
	}
	wantByRun := make(map[string]streamRun, len(want))
	for _, w := range want {
		wantByRun[w.Run] = w
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, fixture has %d", len(got), len(want))
	}
	check := func(t *testing.T, g streamRun) {
		t.Helper()
		w, ok := wantByRun[g.Run]
		if !ok {
			t.Errorf("%s: not in the fixture", g.Run)
			return
		}
		gb, _ := json.Marshal(g)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s diverged:\n got  %s\n want %s", g.Run, gb, wb)
		}
	}
	for _, g := range got {
		check(t, g)
	}

	t.Run("bundle", func(t *testing.T) {
		for _, p := range Programs() {
			var lanes []*pinLane
			for _, a := range alloc.Names() {
				lanes = append(lanes, newPinLane(t, a, 0))
			}
			runs, errs := pinBundle(p, lanes)
			for i, g := range runs {
				if errs[i] != nil {
					t.Errorf("%s: %v", g.Run, errs[i])
					continue
				}
				check(t, g)
			}
		}
	})

	// A lane whose regions are capped at gawk's global segment runs out
	// of heap mid-run. It
	// must stop with exactly its lone run's error and stream, while
	// every lane around it still matches the fixture.
	t.Run("failing-lane", func(t *testing.T) {
		const failing, limit = "firstfit", 25 << 10
		prog, ok := ByName("gawk")
		if !ok {
			t.Fatal("no gawk program")
		}
		lone := newPinLane(t, failing, limit)
		stats, loneErr := Run(lone.m, lone.a, streamConfig(prog))
		if !errors.Is(loneErr, mem.ErrOutOfMemory) || !strings.HasPrefix(loneErr.Error(), "workload gawk step ") {
			t.Fatalf("lone run with %d-byte regions: got %v, want an out-of-memory error mid-run", limit, loneErr)
		}
		wantFail := lone.pin(prog.Name, stats)

		// The failing lane leads the bundle, then follows the lead: the
		// lead keeps its addresses inline and the rest in slot tables.
		for _, at := range []int{0, 5} {
			var lanes []*pinLane
			for _, a := range alloc.Names() {
				lanes = append(lanes, newPinLane(t, a, 0))
			}
			lanes = append(lanes[:at], append([]*pinLane{newPinLane(t, failing, limit)}, lanes[at:]...)...)
			runs, errs := pinBundle(prog, lanes)
			for i, g := range runs {
				if i == at {
					if errs[i] == nil || errs[i].Error() != loneErr.Error() {
						t.Errorf("failing lane %d: error %v, want the lone run's %v", at, errs[i], loneErr)
					}
					gb, _ := json.Marshal(g)
					wb, _ := json.Marshal(wantFail)
					if !bytes.Equal(gb, wb) {
						t.Errorf("failing lane %d diverged from its lone run:\n got  %s\n want %s", at, gb, wb)
					}
					continue
				}
				if errs[i] != nil {
					t.Errorf("%s beside failing lane %d: %v", g.Run, at, errs[i])
					continue
				}
				check(t, g)
			}
		}
	})
}
