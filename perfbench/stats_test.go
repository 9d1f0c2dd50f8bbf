package main

import "testing"

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so percentile must sort
	}
	return s
}

// TestTailRefusesThinSample checks that the tail helper refuses a
// percentile with fewer than ten samples beyond it, and otherwise
// returns the nearest-rank value.
func TestTailRefusesThinSample(t *testing.T) {
	if _, beyond, err := seq(99).percentile(90); err == nil {
		t.Errorf("p90 of 99 samples accepted with %d beyond", beyond)
	}
	if seq(99).supports(90) {
		t.Error("supports(90) with 99 samples")
	}
	v, beyond, err := seq(100).percentile(90)
	if err != nil || v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond (%v), want 90 with 10", v, beyond, err)
	}
	if _, _, err := seq(1000).percentile(100); err == nil {
		t.Error("p100 accepted")
	}
	if m := seq(4).median(); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
	if m := (sample{1, 2, 9}).mean(); m != 4 {
		t.Errorf("mean of 1, 2, 9 = %v, want 4", m)
	}
}
