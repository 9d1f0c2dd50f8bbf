package main

import (
	"context"
	"testing"

	"mallocsim/internal/paper"
)

// TestTracedPairMatchesRunner checks that the traced pipeline simulates
// exactly what paper.Runner does for a pair of each kind — plain, with
// page simulation, and the server scenario with sharing — and that its
// spans account for the whole pair.
func TestTracedPairMatchesRunner(t *testing.T) {
	const scale, seed = paper.GoldenScale, 5
	r := paper.NewRunner(scale)
	r.Seed = seed
	ctx := context.Background()
	for _, p := range []paper.Pair{
		{Program: "gawk", Allocator: "custom"},
		{Program: "gs-small", Allocator: "locarena"},
		{Program: "ptc", Allocator: "firstfit"},
		{Program: "server", Allocator: "firstfit-nocoalesce"},
	} {
		tp, err := runTracedPair(ctx, p, scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Result(ctx, p.Program, p.Allocator)
		if err != nil {
			t.Fatal(err)
		}
		if tp.out.digest() != resultOutputs(res).digest() {
			t.Errorf("%s/%s: traced outputs %+v differ from Runner.Result %+v", p.Program, p.Allocator, tp.out, resultOutputs(res))
		}
		if (tp.out.Curve != nil) != pageSimPrograms[p.Program] || tp.hasSharing != (p.Program == "server") {
			t.Errorf("%s/%s: page curve %v, sharing %v", p.Program, p.Allocator, tp.out.Curve != nil, tp.hasSharing)
		}
		if tp.allocOps != res.Workload.Allocs+res.Workload.Frees {
			t.Errorf("%s/%s: tap counted %d allocator calls, the run made %d", p.Program, p.Allocator,
				tp.allocOps, res.Workload.Allocs+res.Workload.Frees)
		}
		var sum int64
		for l := layer(0); l < numLayers; l++ {
			sum += tp.tr.selfNs(l)
		}
		if span := tp.tr.spanNs(layerPair); sum != span || tp.tr.selfNs(layerWorkload) <= 0 {
			t.Errorf("%s/%s: self times add to %d ns, pair span %d ns", p.Program, p.Allocator, sum, span)
		}
	}
}
