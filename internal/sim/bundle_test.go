package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mallocsim/internal/cache"
	"mallocsim/internal/obs"
	"mallocsim/internal/trace"
	"mallocsim/internal/workload"
)

// TestRunBundleMatchesLoneRuns: every lane of a bundle returns exactly
// what RunContext returns for its allocator alone — caches, paging, the
// heap auditor and the server scenario's sharing report included — and
// an allocator that cannot be built fails alone.
func TestRunBundleMatchesLoneRuns(t *testing.T) {
	gs, ok := workload.ByName("gs")
	if !ok {
		t.Fatal("no gs program")
	}
	srv, ok := workload.ServerByName("server")
	if !ok {
		t.Fatal("no server scenario")
	}
	caches := []cache.Config{{Size: 16 << 10}, {Size: 64 << 10}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"program", Config{Program: gs, Scale: 512, Caches: caches, PageSim: true, CheckHeap: true}},
		{"server", Config{Server: &srv, Scale: 1024, Caches: caches}},
	}
	allocs := []string{"firstfit", "no-such-allocator", "bsd", "locarena", "lifetime"}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, errs := RunBundle(context.Background(), c.cfg, allocs)
			if len(got) != len(allocs) || len(errs) != len(allocs) {
				t.Fatalf("%d results and %d errors for %d allocators", len(got), len(errs), len(allocs))
			}
			for i, a := range allocs {
				cfg := c.cfg
				cfg.Allocator = a
				want, wantErr := Run(cfg)
				if (errs[i] == nil) != (wantErr == nil) || (wantErr != nil && errs[i].Error() != wantErr.Error()) {
					t.Errorf("%s: error %v, lone run %v", a, errs[i], wantErr)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("%s: bundle result differs from the lone run", a)
				}
			}
		})
	}
}

// TestRunBundleRejectsSingleRunObservers: a Recorder or Attribution
// observes one run, so a bundle of several allocators refuses them.
func TestRunBundleRejectsSingleRunObservers(t *testing.T) {
	prog, _ := workload.ByName("make")
	for _, cfg := range []Config{
		{Program: prog, Scale: 256, Recorder: &obs.Recorder{}},
		{Program: prog, Scale: 256, Attribution: true},
	} {
		res, errs := RunBundle(context.Background(), cfg, []string{"firstfit", "bsd"})
		for i := range errs {
			if errs[i] == nil || res[i] != nil {
				t.Errorf("lane %d: result %v, error %v; want an error", i, res[i], errs[i])
			}
		}
		if _, errs := RunBundle(context.Background(), cfg, []string{"firstfit"}); errs[0] != nil {
			t.Errorf("one-allocator bundle: %v", errs[0])
		}
	}
}

// TestRunBundleRejectsBadCacheLists: a cache list cache.ValidateGroup
// rejects fails every lane with its error instead of panicking.
func TestRunBundleRejectsBadCacheLists(t *testing.T) {
	prog, _ := workload.ByName("gawk")
	for _, caches := range [][]cache.Config{
		{{Size: 3000}},
		{{Size: 16 << 10}, {Size: 16 << 10, LineSize: 64}},
	} {
		cfg := Config{Program: prog, Scale: 1024, Caches: caches}
		want := cache.ValidateGroup(caches...)
		res, errs := RunBundle(context.Background(), cfg, []string{"bsd", "firstfit"})
		for i := range errs {
			if errs[i] == nil || res[i] != nil || !strings.Contains(errs[i].Error(), want.Error()) {
				t.Errorf("caches %v lane %d: result %v, error %v; want %q", caches, i, res[i], errs[i], want)
			}
		}
	}
}

// TestRunBundleSinks: Config.Sinks gives every lane sinks of its own,
// which see the lane's whole reference stream.
func TestRunBundleSinks(t *testing.T) {
	prog, _ := workload.ByName("gawk")
	allocs := []string{"bsd", "firstfit", "quickfit"}
	counters := make([]*trace.Counter, len(allocs))
	cfg := Config{Program: prog, Scale: 1024, Sinks: func(lane int) []trace.Sink {
		counters[lane] = &trace.Counter{}
		return []trace.Sink{counters[lane]}
	}}
	res, errs := RunBundle(context.Background(), cfg, allocs)
	for i, a := range allocs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", a, errs[i])
		}
		if *counters[i] != res[i].Refs {
			t.Errorf("%s: lane sink counted %+v, the pipeline's counter %+v", a, *counters[i], res[i].Refs)
		}
	}
}
