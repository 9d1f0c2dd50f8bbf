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

// goldenExtensions are the extension studies that build their own sink
// graphs (extRun or a hand-wired mem.Memory) instead of reading the
// memoized paper pairs, so no paper golden covers their numbers.
var goldenExtensions = []string{"ext-victim", "ext-hierarchy", "ext-flush", "ext-tlb", "ext-linesize", "ext-apps"}

// goldenTables renders every paper experiment to its versioned JSON
// document after prefetching the matrix through a worker pool of the
// given width; workers 0 skips Prefetch, so every pair runs alone
// through Result as the tables ask for it.
func goldenTables(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	r := NewRunner(GoldenScale)
	if workers > 0 {
		r.Workers = workers
		if err := r.Prefetch(ctx, r.PaperPairs()); err != nil {
			t.Fatalf("prefetch (workers=%d): %v", workers, err)
		}
	}
	out := make(map[string][]byte, len(r.Experiments()))
	for _, e := range r.Experiments() {
		out[e.ID] = renderGolden(t, e)
	}
	return out
}

// renderGolden runs one experiment and returns its indented JSON
// document, newline-terminated as the golden files store it.
func renderGolden(t *testing.T, e Experiment) []byte {
	t.Helper()
	tab, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	b, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatalf("%s: marshal: %v", e.ID, err)
	}
	return append(b, '\n')
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
	got := goldenTables(t, 8)
	var ids []string
	for _, e := range NewRunner(GoldenScale).Experiments() {
		ids = append(ids, e.ID)
	}
	checkGoldens(t, ids, got)
}

// TestGoldenExtensions pins the extension tables that wire their own
// sinks (victim buffer, two-level hierarchy, flush intervals, TLB, line
// sizes, the apps kernels) next to the paper's goldens, at the same
// scale and seed.
func TestGoldenExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension goldens run six extension studies")
	}
	r := NewRunner(GoldenScale)
	got := make(map[string][]byte, len(goldenExtensions))
	for _, id := range goldenExtensions {
		e, ok := r.ByID(id)
		if !ok {
			t.Fatalf("unknown extension %q", id)
		}
		got[id] = renderGolden(t, e)
	}
	checkGoldens(t, goldenExtensions, got)
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
