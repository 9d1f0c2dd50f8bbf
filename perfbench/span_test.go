package main

import (
	"testing"
	"time"
)

// busy keeps a span open long enough to be measurable.
func busy() { time.Sleep(2 * time.Millisecond) }

// TestSelfTimeSubtractsNestedSpans checks that a ring flush fired
// inside a Free is that Free's child: the flush's time leaves the
// Free's self time, and the self times of a span tree add up to its
// root's duration exactly.
func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	tr := newTracer("prog/alloc")
	tr.begin(layerPair)
	tr.begin(layerWorkload)
	busy()
	tr.begin(layerAlloc) // a Free ...
	busy()
	tr.begin(layerGroup) // ... that fills the ring and flushes it
	busy()
	tr.end()
	tr.end()
	tr.end()
	tr.end()

	if n := tr.count[layerAlloc][layerGroup]; n != 1 {
		t.Fatalf("flush recorded %d times as the Free's child, want 1", n)
	}
	if n := tr.count[layerWorkload][layerGroup]; n != 0 {
		t.Fatalf("flush recorded %d times as the workload's direct child, want 0", n)
	}
	flush := tr.spanNs(layerGroup)
	if got, want := tr.selfNs(layerAlloc), tr.spanNs(layerAlloc)-flush; got != want {
		t.Errorf("Free self time %d ns, want span %d - flush %d", got, tr.spanNs(layerAlloc), flush)
	}
	if got, want := tr.selfNs(layerWorkload), tr.spanNs(layerWorkload)-tr.spanNs(layerAlloc); got != want {
		t.Errorf("workload self time %d ns, want %d", got, want)
	}
	var sum int64
	for l := layer(0); l < numLayers; l++ {
		sum += tr.selfNs(l)
	}
	if root := tr.spanNs(layerPair); sum != root {
		t.Errorf("self times add up to %d ns, pair span is %d ns", sum, root)
	}
	for l, want := range map[layer]time.Duration{layerWorkload: 2 * time.Millisecond, layerAlloc: 2 * time.Millisecond, layerGroup: 2 * time.Millisecond} {
		if got := time.Duration(tr.selfNs(l)); got < want {
			t.Errorf("%s self time %v, below the %v it was kept busy", layerNames[l], got, want)
		}
	}

	// Only the coarse spans are kept one by one, with their parents.
	if len(tr.spans) != 2 || tr.spans[0].Name != "pair" || tr.spans[1].Parent != tr.spans[0].ID {
		t.Errorf("kept spans %+v, want the pair and its workload child", tr.spans)
	}
	aggs := tr.aggregates()
	found := false
	for _, a := range aggs {
		if a.Name == "cache.group" && a.Parent == "alloc" && a.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("folded totals %+v lack the flush under the Free", aggs)
	}
}
