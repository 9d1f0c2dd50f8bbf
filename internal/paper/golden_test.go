package paper

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden figure files from the current output.
// After an intentional change to the simulation or the table formats,
// regenerate with
//
//	go test ./internal/paper -run TestGoldenFigures -update
//
// and review the diff like any other code change: every changed byte
// is a changed published number.
var update = flag.Bool("update", false, "rewrite testdata/golden from current output")

// goldenScale keeps the full 17-experiment battery around five seconds
// while exercising every experiment's real code path.
const goldenScale = 256

func goldenDir() string { return filepath.Join("testdata", "golden") }

// goldenTables renders every paper experiment to its versioned JSON
// document after prefetching the matrix through a worker pool of the
// given width; workers 0 skips Prefetch, so every pair runs alone
// through Result as the tables ask for it.
func goldenTables(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	r := NewRunner(goldenScale)
	if workers > 0 {
		r.Workers = workers
		if err := r.Prefetch(ctx, r.PaperPairs()); err != nil {
			t.Fatalf("prefetch (workers=%d): %v", workers, err)
		}
	}
	out := make(map[string][]byte, len(r.Experiments()))
	for _, e := range r.Experiments() {
		tab, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b, err := json.MarshalIndent(tab, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal: %v", e.ID, err)
		}
		out[e.ID] = append(b, '\n')
	}
	return out
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
	got := goldenTables(t, 8)
	if *update {
		if err := os.MkdirAll(goldenDir(), 0o755); err != nil {
			t.Fatal(err)
		}
		r := NewRunner(goldenScale)
		for _, e := range r.Experiments() {
			path := filepath.Join(goldenDir(), e.ID+".json")
			if err := os.WriteFile(path, got[e.ID], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden files in %s", len(got), goldenDir())
		return
	}
	r := NewRunner(goldenScale)
	for _, e := range r.Experiments() {
		path := filepath.Join(goldenDir(), e.ID+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", e.ID, err)
		}
		if !bytes.Equal(got[e.ID], want) {
			t.Errorf("%s: output differs from %s (regenerate with -update if the change is intentional)", e.ID, path)
		}
	}
}

// TestGoldenWorkerInvariance reruns the battery at other pool widths —
// which deal each program's allocators into other bundles — and through
// lone Result calls, and requires byte-identical documents: neither
// scheduling order nor bundle composition may leak into results.
func TestGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden battery runs the full paper matrix four times")
	}
	parallel := goldenTables(t, 8)
	for _, workers := range []int{1, 2, 0} {
		other := goldenTables(t, workers)
		for id, want := range parallel {
			if !bytes.Equal(other[id], want) {
				t.Errorf("%s: workers=%d (0 = lone Result calls) and workers=8 produced different documents", id, workers)
			}
		}
	}
}
