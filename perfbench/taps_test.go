package main

import (
	"testing"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/obs"
	"mallocsim/internal/trace"
	"mallocsim/internal/vm"
)

// fakeAlloc records which entry point each call arrived on.
type fakeAlloc struct{ calls *[]string }

func (f fakeAlloc) Name() string { return "fake" }
func (f fakeAlloc) Malloc(n uint32) (uint64, error) {
	*f.calls = append(*f.calls, "Malloc")
	return 8, nil
}
func (f fakeAlloc) Free(addr uint64) error { *f.calls = append(*f.calls, "Free"); return nil }

type fakeSite struct{ fakeAlloc }

func (f fakeSite) MallocSite(n, site uint32) (uint64, error) {
	*f.calls = append(*f.calls, "MallocSite")
	return 8, nil
}

type fakeHint struct{ fakeAlloc }

func (f fakeHint) MallocLocal(n, loc uint32) (uint64, error) {
	*f.calls = append(*f.calls, "MallocLocal")
	return 8, nil
}

// callAll drives every entry point a workload driver may use.
func callAll(a alloc.Allocator) {
	a.Malloc(4)
	a.(alloc.SiteAllocator).MallocSite(4, 1)
	a.(alloc.LocalityHinter).MallocLocal(4, 1)
	a.Free(8)
}

// TestAllocTapForwardsLikeInstrumented checks that the timing tap
// dispatches each call to the same entry point of the wrapped allocator
// as obs.Instrumented does, and that it unwraps, so alloc.HintAware and
// the workload driver see what they would see unwrapped.
func TestAllocTapForwardsLikeInstrumented(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(*[]string) alloc.Allocator
	}{
		{"plain", func(c *[]string) alloc.Allocator { return fakeAlloc{c} }},
		{"site-aware", func(c *[]string) alloc.Allocator { return fakeSite{fakeAlloc{c}} }},
		{"hint-aware", func(c *[]string) alloc.Allocator { return fakeHint{fakeAlloc{c}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var viaTap, viaObs []string
			inner := tc.make(&viaTap)
			tap := newAllocTap(inner, newTracer("test"))
			callAll(tap)
			callAll(obs.Instrument(tc.make(&viaObs), &cost.Meter{}, &obs.Recorder{}))
			if len(viaTap) != len(viaObs) {
				t.Fatalf("tap forwarded %v, obs.Instrumented %v", viaTap, viaObs)
			}
			for i := range viaTap {
				if viaTap[i] != viaObs[i] {
					t.Fatalf("tap forwarded %v, obs.Instrumented %v", viaTap, viaObs)
				}
			}
			if tap.Unwrap() != inner {
				t.Error("Unwrap does not return the wrapped allocator")
			}
			if got, want := alloc.HintAware(tap), alloc.HintAware(inner); got != want {
				t.Errorf("HintAware(tap) = %v, unwrapped %v", got, want)
			}
			if tap.ops != 4 {
				t.Errorf("tap counted %d operations, want 4", tap.ops)
			}
		})
	}
}

// TestSinkTapsStayOnBlockTier checks that mem.Memory still hands whole
// ring flushes to every tapped sink: trace.SplitBlocks must route each
// tap on the block tier.
func TestSinkTapsStayOnBlockTier(t *testing.T) {
	tr := newTracer("test")
	var counter trace.Counter
	sinks := []trace.Sink{
		&sinkTap{inner: &counter, tr: tr, layer: layerCounter},
		&sinkTap{inner: cache.NewGroup(cache.Config{Size: 16 << 10}), tr: tr, layer: layerGroup},
		&sinkTap{inner: vm.NewStackSim(), tr: tr, layer: layerStack},
		&sinkTap{inner: cache.NewSharing(cache.SharingConfig{}), tr: tr, layer: layerSharing},
	}
	blocks, batch, rest := trace.SplitBlocks(trace.NewTee(sinks...))
	if len(blocks) != len(sinks) || len(batch) != 0 || rest != nil {
		t.Fatalf("SplitBlocks: %d block sinks, %d batch sinks, rest %v; want %d, 0, nil",
			len(blocks), len(batch), rest, len(sinks))
	}
}
