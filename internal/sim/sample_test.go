package sim

import (
	"testing"

	"mallocsim/internal/cache"
	"mallocsim/internal/workload"
)

func pagingConfig(t *testing.T, prog string, scale uint64) Config {
	t.Helper()
	p, ok := workload.ByName(prog)
	if !ok {
		t.Fatalf("no %s program", prog)
	}
	return Config{
		Program:   p,
		Allocator: "quickfit",
		Scale:     scale,
		Caches:    []cache.Config{{Size: 16 << 10}, {Size: 64 << 10}},
		PageSim:   true,
	}
}

// TestSampledRunConvergence: with PageSampleShift set, the golden
// paging workloads' sampled fault curves must track the exact curves
// at every sweep point at or above four times the 2^shift distance
// resolution: within 20% of the fault count, or — at the steep knees
// of the curve, where sampled distances spread across the threshold —
// within 0.3 percentage points of the fault *rate* (the quantity the
// paper's figures plot). Below the resolution, quantization (sampled
// distances are multiples of 2^shift) dominates by construction.
// Reference counts must stay exact, the sampling rate must be
// recorded in the run report, and the exact run's report must not
// carry a sample_rate field — its bytes are pinned by the golden
// matrix.
func TestSampledRunConvergence(t *testing.T) {
	// The rate a workload needs scales with its page population: gs
	// touches thousands of distinct pages (rate 1/4 suffices), ptc
	// only hundreds (rate 1/2 keeps enough sampled pages for the
	// estimator).
	cases := []struct {
		prog  string
		scale uint64
		shift uint
	}{
		{"gs", 16, 2},
		{"ptc", 8, 1},
	}
	for _, tc := range cases {
		prog, shift := tc.prog, tc.shift
		rate := 1 / float64(uint64(1)<<shift)
		t.Run(prog, func(t *testing.T) {
			cfg := pagingConfig(t, prog, tc.scale)
			exact, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.PageSampleShift = shift
			sampled, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if exact.Curve == nil || sampled.Curve == nil {
				t.Fatal("missing fault curves")
			}
			if exact.Curve.Refs != sampled.Curve.Refs {
				t.Errorf("Refs must stay exact under sampling: %d vs %d", exact.Curve.Refs, sampled.Curve.Refs)
			}
			if got := sampled.Curve.SampleRate(); got != rate {
				t.Errorf("SampleRate = %v, want %v", got, rate)
			}
			checked := 0
			for _, p := range exact.Curve.Sweep() {
				if p.Pages < 1<<(shift+2) || p.Faults < 2000 {
					continue
				}
				est := sampled.Curve.Faults(p.Pages)
				diff := float64(est) - float64(p.Faults)
				if diff < 0 {
					diff = -diff
				}
				rel := diff / float64(p.Faults)
				rateErr := diff / float64(exact.Curve.Refs)
				if rel > 0.20 && rateErr > 0.003 {
					t.Errorf("faults(%d pages) off by %.1f%% (%.2fpp of fault rate): sampled %d vs exact %d",
						p.Pages, 100*rel, 100*rateErr, est, p.Faults)
				}
				checked++
			}
			if checked == 0 {
				t.Error("no sweep point had enough fault events to check convergence")
			}

			// The rate lands in the report; exact reports stay unchanged.
			if rep := sampled.Report(); rep.VM == nil || rep.VM.SampleRate != rate {
				t.Errorf("sampled run report does not record the sampling rate: %+v", rep.VM)
			}
			if rep := exact.Report(); rep.VM == nil || rep.VM.SampleRate != 0 {
				t.Errorf("exact run report must leave sample_rate absent: %+v", rep.VM)
			}
		})
	}
}
