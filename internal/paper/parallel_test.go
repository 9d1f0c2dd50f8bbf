package paper

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mallocsim/internal/alloc"
	"mallocsim/internal/sim"
)

// detIDs is a fast cross-section of the matrix: a baseline table, a
// miss-rate curve, and the allocator-architecture ablation.
var detIDs = []string{"table2", "figure6", "figure9"}

// renderAll prefetches the ids through a pool of the given width and
// returns the concatenated rendered tables.
func renderAll(t *testing.T, workers int, ids []string) string {
	t.Helper()
	r := testRunner()
	r.Workers = workers
	if err := r.Prefetch(context.Background(), r.PairsFor(ids...)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, id := range ids {
		e, ok := r.ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		tab, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sb.WriteString(tab.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestParallelDeterminism: the worker pool must not change a single
// byte of output — every (program, allocator) run is hermetic, and
// table assembly always reads from the memo sequentially. Run under
// -race in CI, this also exercises the single-flight memo from many
// goroutines.
func TestParallelDeterminism(t *testing.T) {
	seq := renderAll(t, 1, detIDs)
	par := renderAll(t, 8, detIDs)
	if seq == "" {
		t.Fatal("empty output")
	}
	if seq != par {
		t.Errorf("workers=1 and workers=8 output differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestPrefetchSharedKey: many goroutines asking for overlapping pairs
// share one simulation per key (single-flight), and the memoized
// pointer is stable.
func TestPrefetchSharedKey(t *testing.T) {
	r := testRunner()
	r.Workers = 4
	pairs := []Pair{
		{"make", "bsd"}, {"make", "bsd"}, {"make", "bsd"},
		{"make", "quickfit"}, {"make", "bsd"},
	}
	if err := r.Prefetch(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	a, err := r.Result(context.Background(), "make", "bsd")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result(context.Background(), "make", "bsd")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoized result not shared")
	}
	if got := len(r.sortedMemoKeys()); got != 2 {
		t.Errorf("memo holds %d keys, want 2: %v", got, r.sortedMemoKeys())
	}
}

// TestResultJoinsRunningBundle: Result calls for pairs inside a running
// bundle, duplicates included, wait for the bundle instead of
// simulating again — every caller gets the bundle's pointer and the
// memo holds one entry per pair. The bundle is held open at its first
// context poll, after it has registered its pairs in flight, until
// every caller is waiting on a flight. Run under -race in CI.
func TestResultJoinsRunningBundle(t *testing.T) {
	r := NewRunner(128)
	r.Workers = 1 // one bundle for the program
	const prog = "espresso"
	var pairs []Pair
	for _, a := range Allocators {
		pairs = append(pairs, Pair{prog, a})
	}
	gate := &heldCtx{Context: context.Background(), polled: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	defer release()
	prefetched := make(chan error, 1)
	go func() { prefetched <- r.Prefetch(gate, append(pairs, pairs[0], pairs[3])) }()
	select {
	case <-gate.polled:
	case err := <-prefetched:
		t.Fatalf("Prefetch returned (err %v) without polling its context", err)
	}
	r.mu.Lock()
	inFlight, memoized := len(r.inflight), len(r.memo)
	r.mu.Unlock()
	if inFlight != len(pairs) || memoized != 0 {
		t.Fatalf("held bundle: %d pairs in flight and %d memoized, want %d and 0", inFlight, memoized, len(pairs))
	}

	const callers = 3 // per pair
	got := make([]*sim.Result, callers*len(pairs))
	errs := make([]error, len(got))
	waiting := make(chan struct{}, len(got))
	returned := make(chan struct{}, len(got))
	for i := range got {
		go func() {
			p := pairs[i%len(pairs)]
			got[i], errs[i] = r.Result(waitSpy{context.Background(), waiting}, p.Program, p.Allocator)
			returned <- struct{}{}
		}()
	}
	for range got {
		select {
		case <-waiting:
		case <-returned:
			t.Fatal("a Result caller returned while the bundle was held: it did not wait for the bundle")
		}
	}
	release()
	for range got {
		<-returned
	}
	if err := <-prefetched; err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		p := pairs[i%len(pairs)]
		if errs[i] != nil {
			t.Fatalf("caller %d for %s/%s: %v", i, p.Program, p.Allocator, errs[i])
		}
		want, err := r.Result(context.Background(), p.Program, p.Allocator)
		if err != nil {
			t.Fatal(err)
		}
		if res != want {
			t.Errorf("caller %d for %s/%s got a result other than the memoized one", i, p.Program, p.Allocator)
		}
	}
	if keys := r.sortedMemoKeys(); len(keys) != len(pairs) {
		t.Errorf("memo holds %d keys, want %d: %v", len(keys), len(pairs), keys)
	}
}

// heldCtx holds its first Err call until release is closed, closing
// polled when that call arrives. A simulation polls its context before
// it does any work, so a bundle run under heldCtx stays open, its pairs
// in flight, until release.
type heldCtx struct {
	context.Context
	once    sync.Once
	polled  chan struct{}
	release chan struct{}
}

func (c *heldCtx) Err() error {
	c.once.Do(func() {
		close(c.polled)
		<-c.release
	})
	return c.Context.Err()
}

// waitSpy sends on waiting whenever Done is called: Result calls it
// only to wait for another caller's flight.
type waitSpy struct {
	context.Context
	waiting chan<- struct{}
}

func (c waitSpy) Done() <-chan struct{} {
	c.waiting <- struct{}{}
	return c.Context.Done()
}

// TestPrefetchPropagatesError: a failing pair surfaces from Prefetch,
// and errors are never memoized.
func TestPrefetchPropagatesError(t *testing.T) {
	r := testRunner()
	r.Workers = 4
	pairs := []Pair{{"make", "bsd"}, {"no-such-program", "bsd"}}
	if err := r.Prefetch(context.Background(), pairs); err == nil {
		t.Fatal("expected error for unknown program")
	}
	if got := len(r.sortedMemoKeys()); got != 1 {
		t.Errorf("memo holds %d keys, want 1 (errors must not be memoized): %v", got, r.sortedMemoKeys())
	}
}

// TestPaperPairsCoverRunAll: prefetching PaperPairs must leave RunAll
// with zero simulations left to run — i.e. the pair lists in PairsFor
// actually cover every experiment's needs. Detecting drift here keeps
// RunAll's parallelism honest: a missing pair silently degrades back
// to sequential execution during assembly.
func TestPaperPairsCoverRunAll(t *testing.T) {
	r := testRunner()
	if err := r.Prefetch(context.Background(), r.PaperPairs()); err != nil {
		t.Fatal(err)
	}
	before := len(r.sortedMemoKeys())
	if _, err := r.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := len(r.sortedMemoKeys())
	if before != after {
		t.Errorf("RunAll ran %d simulations PaperPairs missed", after-before)
	}
}

// TestResultHitZeroAlloc: table assembly asks Result for every cell, so
// a memoized pair must be a lookup that allocates nothing.
func TestResultHitZeroAlloc(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(1024)
	if _, err := r.Result(ctx, "espresso", "firstfit"); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = r.Result(ctx, "espresso", "firstfit") }); avg != 0 {
		t.Errorf("a memoized Result allocates %.1f allocs/op, want 0", avg)
	}
}

// TestPlanBundles pins how Prefetch deals pairs into jobs. The server
// scenario's allocators go round-robin into max(min(Workers, N),
// ⌈N/2⌉) bundles, so no bundle holds more than two lanes and each
// allocator runs exactly once. Catalog programs keep min(Workers, N)
// bundles: at Workers 2 the experiment lists of perfbench's
// paper-churn and paper-paging workloads plan exactly these jobs.
func TestPlanBundles(t *testing.T) {
	allocs := alloc.Names()
	for _, workers := range []int{1, 2, 8, 16} {
		r := NewRunner(GoldenScale)
		r.Workers = workers
		jobs := r.plan(r.PairsFor("server"))
		n := max(min(workers, len(allocs)), (len(allocs)+1)/2)
		if len(jobs) != n {
			t.Errorf("workers=%d: %d server jobs, want %d", workers, len(jobs), n)
			continue
		}
		seen := map[string]int{}
		for i, j := range jobs {
			var want []string
			for k := i; k < len(allocs); k += n {
				want = append(want, allocs[k])
			}
			if j.program != serverScenario || len(j.allocs) > 2 || !slices.Equal(j.allocs, want) {
				t.Errorf("workers=%d: job %d = %s %v, want %s %v", workers, i, j.program, j.allocs, serverScenario, want)
			}
			for _, a := range j.allocs {
				seen[a]++
			}
		}
		for _, a := range allocs {
			if seen[a] != 1 {
				t.Errorf("workers=%d: %s planned %d times, want once", workers, a, seen[a])
			}
		}
	}

	r := NewRunner(GoldenScale)
	r.Workers = 2
	for _, c := range []struct {
		ids  []string
		want []job
	}{
		{[]string{"figure6", "figure7", "figure9", "modern"}, []job{
			{"gs-small", []string{"firstfit", "bsd", "quickfit", "bitfit", "locarena"}},
			{"gs-small", []string{"gnufit", "gnulocal", "custom", "vamfit"}},
			{"gs-medium", []string{"firstfit", "bsd", "quickfit"}},
			{"gs-medium", []string{"gnufit", "gnulocal"}},
			{"gawk", []string{"bsd", "custom-pow2", "custom-reclaim", "vamfit"}},
			{"gawk", []string{"quickfit", "custom", "bitfit", "locarena"}},
			{"espresso", []string{"bsd", "custom-pow2", "custom-reclaim", "vamfit"}},
			{"espresso", []string{"quickfit", "custom", "bitfit", "locarena"}},
		}},
		{[]string{"figure2", "figure3", "figure8"}, []job{
			{"gs", []string{"firstfit", "bsd", "quickfit"}},
			{"gs", []string{"gnufit", "gnulocal"}},
			{"ptc", []string{"firstfit", "bsd", "quickfit"}},
			{"ptc", []string{"gnufit", "gnulocal"}},
		}},
	} {
		if got := r.plan(r.PairsFor(c.ids...)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("workers=2, %v: jobs\n%v\nwant\n%v", c.ids, got, c.want)
		}
	}
}
