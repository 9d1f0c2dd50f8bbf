package main

import (
	"context"
	"testing"
)

// TestSimdTracedPass runs one traced simd-jobs pass: the client, the
// service's two workers and the store wrapper record spans at once. Every
// report must check out, the pass must mix the three job classes, and
// the spans must cover the client calls, phases and store calls.
func TestSimdTracedPass(t *testing.T) {
	tl := &tally{}
	s := newSimdBench(3, 2, t.TempDir(), tl)
	ctx := context.Background()
	if err := s.prepare(ctx); err != nil {
		t.Fatal(err)
	}
	_, results, err := s.passOnCopy(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	s.record(results)
	if tl.failed != 0 || tl.attempted != len(s.seq) {
		t.Fatalf("%d of %d jobs failed: %v", tl.failed, tl.attempted, tl.notes)
	}
	unstored := 0
	for r := range s.specs {
		if !stored(r) {
			unstored++
		}
	}
	if len(s.runLat) < unstored || len(s.hitLat) == 0 {
		t.Errorf("%d run and %d hit jobs, want at least %d runs and some hits", len(s.runLat), len(s.hitLat), unstored)
	}
	if n := s.log.count("store.get.hit"); n < simdUniverse-unstored {
		t.Errorf("%d store hits, want at least the %d pre-stored specs", n, simdUniverse-unstored)
	}
	for _, name := range []string{"job", "http.submit", "http.poll", "http.report", "serve.queue", "serve.run", "store.put", "store.get.miss"} {
		if s.log.count(name) == 0 {
			t.Errorf("no %s spans", name)
		}
	}
	m := s.layerMetrics()
	if m["serve.cache_hit_frac"] <= 0 || m["serve.cache_hit_frac"] >= 1 || m["store.hit_frac"] <= 0 {
		t.Errorf("cache hit fraction %v, store hit fraction %v", m["serve.cache_hit_frac"], m["store.hit_frac"])
	}
}
