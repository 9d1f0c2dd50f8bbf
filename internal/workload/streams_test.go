package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"os"
	"path/filepath"
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

// pinRun runs one driver into a batched row hasher and fingerprints it.
func pinRun(t *testing.T, name, allocName string, drive func(*mem.Memory, alloc.Allocator) (Stats, error)) streamRun {
	t.Helper()
	h := newRowHasher()
	meter := &cost.Meter{}
	m := mem.New(h, meter)
	m.SetBatching(0)
	a, err := alloc.New(allocName, m)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := drive(m, a)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, allocName, err)
	}
	m.Flush()
	snap := meter.Snapshot()
	return streamRun{
		Run:    name + "/" + allocName,
		Rows:   h.rows,
		Refs:   h.refs,
		SHA256: hex.EncodeToString(h.h.Sum(nil)),
		App:    snap.App,
		Malloc: snap.Malloc,
		Free:   snap.Free,
		Stats:  stats,
	}
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
				return Run(m, a, Config{Program: p, Scale: streamScale, Seed: streamSeed, SampleEvery: streamSampleEvery})
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
	for _, g := range got {
		w, ok := wantByRun[g.Run]
		if !ok {
			t.Errorf("%s: not in the fixture", g.Run)
			continue
		}
		gb, _ := json.Marshal(g)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s diverged:\n got  %s\n want %s", g.Run, gb, wb)
		}
	}
}
