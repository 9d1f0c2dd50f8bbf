package paper

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// update rewrites the golden files from the current output. After an
// intentional change to the simulation or the table formats,
// regenerate with
//
//	go test ./internal/paper -run 'TestGolden(Figures|Extensions)' -update
//
// and review the diff like any other code change: every changed byte
// is a changed published number.
var update = flag.Bool("update", false, "rewrite testdata/golden from current output")

func goldenDir() string { return filepath.Join("testdata", "golden") }

// renderTables renders the experiments named by ids to their versioned
// JSON documents, newline-terminated as the golden files store them, on
// a Runner with a pool of the given width. Workers 0 runs the tables one
// by one without Tables' prefetch, so every pair runs alone through
// Result as the tables ask for it.
func renderTables(workers int, ids []string) (map[string][]byte, error) {
	ctx := context.Background()
	r := NewRunner(GoldenScale)
	r.Workers = workers
	var tables []*Table
	if workers > 0 {
		var err error
		if tables, err = r.Tables(ctx, ids...); err != nil {
			return nil, fmt.Errorf("workers=%d: %w", workers, err)
		}
	} else {
		for _, id := range ids {
			e, ok := r.ByID(id)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
			tab, err := e.Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			tables = append(tables, tab)
		}
	}
	out := make(map[string][]byte, len(ids))
	for i, tab := range tables {
		b, err := json.MarshalIndent(tab, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("%s: marshal: %w", ids[i], err)
		}
		out[ids[i]] = append(b, '\n')
	}
	return out, nil
}

// battery holds the one rendering of every table, paper and extension,
// that the golden tests of a test binary share.
var battery struct {
	once sync.Once
	docs map[string][]byte
	err  error
}

// goldenBattery renders all the tables through Tables at Workers 8, once
// per test binary, and returns their documents.
func goldenBattery(t *testing.T) map[string][]byte {
	t.Helper()
	battery.once.Do(func() {
		battery.docs, battery.err = renderTables(8, NewRunner(GoldenScale).Names())
	})
	if battery.err != nil {
		t.Fatal(battery.err)
	}
	return battery.docs
}

// checkGoldens compares each rendered document with
// testdata/golden/<id>.json, or rewrites the files under -update.
func checkGoldens(t *testing.T, ids []string, got map[string][]byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(goldenDir(), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := os.WriteFile(filepath.Join(goldenDir(), id+".json"), got[id], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden files in %s", len(ids), goldenDir())
		return
	}
	for _, id := range ids {
		path := filepath.Join(goldenDir(), id+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", id, err)
		}
		if !bytes.Equal(got[id], want) {
			t.Errorf("%s: output differs from %s (regenerate with -update if the change is intentional)", id, path)
		}
	}
}

// TestGoldenFigures pins every paper table and figure to a canonical
// JSON document under testdata/golden. The simulation pipeline is a
// pure function of (program, allocator, scale, seed), so any byte
// difference is a real change to reproduced results — intentional
// changes are made visible by regenerating with -update and reviewing
// the diff.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden battery runs the full paper matrix")
	}
	checkGoldens(t, idsOf(NewRunner(GoldenScale).Experiments()), goldenBattery(t))
}

// TestGoldenExtensions pins every extension table next to the paper's
// goldens, at the same scale and seed; a new extension is pinned as
// soon as the Runner lists it.
func TestGoldenExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension goldens run the twelve extension studies")
	}
	checkGoldens(t, idsOf(NewRunner(GoldenScale).extensions()), goldenBattery(t))
}

// TestGoldenWorkerInvariance reruns the paper battery at other pool
// widths — which deal each program's allocators into other bundles and
// run other tables side by side — and through lone Result calls, and
// requires byte-identical documents: neither scheduling order nor
// bundle composition may leak into results.
func TestGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden battery runs the full paper matrix four times")
	}
	parallel := goldenBattery(t)
	ids := idsOf(NewRunner(GoldenScale).Experiments())
	for _, workers := range []int{1, 2, 0} {
		other, err := renderTables(workers, ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if !bytes.Equal(other[id], parallel[id]) {
				t.Errorf("%s: workers=%d (0 = lone Result calls) and workers=8 produced different documents", id, workers)
			}
		}
	}
}
