package vm

import (
	"reflect"
	"testing"

	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// genPageBlock builds a random contract-conforming block aimed at the
// page simulator: same-page repeats (the folded hot case), page-
// spanning refs, refs clamping at the top of the address space, and
// run rows both inside the aligned contract (size divides the page
// size, aligned start) and outside it (misaligned, zero size).
func genPageBlock(r *rng.Rand, rows int) *trace.Block {
	b := &trace.Block{}
	space := uint64(512 * DefaultPageSize)
	for b.Len() < rows {
		kind := trace.Read
		if r.Bool(0.3) {
			kind = trace.Write
		}
		switch {
		case r.Bool(0.05):
			// Spans several pages.
			b.Append(trace.Ref{Addr: r.Uint64n(space), Size: uint32(r.Uint64n(3 * DefaultPageSize)), Kind: kind})
		case r.Bool(0.02):
			// Byte span clamps at ^uint64(0).
			b.Append(trace.Ref{Addr: ^uint64(0) - r.Uint64n(2*DefaultPageSize), Size: uint32(r.Uint64n(4 * DefaultPageSize)), Kind: kind})
		case r.Bool(0.1):
			// Aligned run: power-of-two size dividing the page size.
			size := uint32(1) << (2 + r.Uint64n(5)) // 4..64
			addr := r.Uint64n(space) &^ uint64(size-1)
			b.AppendRun(addr, size, kind, uint32(1+r.Uint64n(3*DefaultPageSize/uint64(size))))
		case r.Bool(0.05):
			// Misaligned / non-dividing run: the element-by-element path.
			sizes := []uint32{3, 6, 24, 100}
			b.AppendRun(1+r.Uint64n(space), sizes[r.Intn(len(sizes))], kind, uint32(1+r.Uint64n(60)))
		case r.Bool(0.02):
			// Zero-size run.
			b.AppendRun(r.Uint64n(space), 0, kind, uint32(1+r.Uint64n(4)))
		case r.Bool(0.5):
			// Same-page repeat pressure: small offsets around a hot page.
			b.Append(trace.Ref{Addr: 17*DefaultPageSize + r.Uint64n(DefaultPageSize-8), Size: 4, Kind: kind})
		default:
			b.Append(trace.Ref{Addr: r.Uint64n(space), Size: 4, Kind: kind})
		}
	}
	return b
}

// TestStackSimBlockEquivalence: Block delivery must reproduce the exact
// Curve of per-reference delivery — for the default engine, the list
// cross-check, and in sampled mode (where the verdict of the
// deterministic page filter is part of the fold).
func TestStackSimBlockEquivalence(t *testing.T) {
	modes := map[string][]Option{
		"fenwick": nil,
		"list":    {WithListEngine()},
		"sampled": {WithSampleShift(3)},
		"page1k":  {WithPageSize(1024)},
	}
	for name, opts := range modes {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				r := rng.New(seed)
				blocks := make([]*trace.Block, 4)
				for i := range blocks {
					blocks[i] = genPageBlock(r, 512)
				}
				byRef, byBlock := NewStackSim(opts...), NewStackSim(opts...)
				var refs []trace.Ref
				for _, b := range blocks {
					refs = b.AppendRefs(refs[:0])
					for _, rf := range refs {
						byRef.Ref(rf)
					}
					byBlock.Block(b)
				}
				if !reflect.DeepEqual(byRef.Curve(), byBlock.Curve()) {
					t.Fatalf("seed %d: block curve diverged from per-ref curve\nref:   %+v\nblock: %+v",
						seed, byRef.Curve(), byBlock.Curve())
				}
				if byRef.DistinctPages() != byBlock.DistinctPages() {
					t.Fatalf("seed %d: distinct pages diverged: %d vs %d",
						seed, byRef.DistinctPages(), byBlock.DistinctPages())
				}
			}
		})
	}
}

// TestSampledDeterministic: the sampling filter is a fixed hash of the
// page number — two simulators fed the same stream must agree bit for
// bit, and the recorded shift must survive into the curve.
func TestSampledDeterministic(t *testing.T) {
	r := rng.New(9)
	b := genPageBlock(r, 2048)
	a, c := NewStackSim(WithSampleShift(4)), NewStackSim(WithSampleShift(4))
	a.Block(b)
	c.Block(b)
	if !reflect.DeepEqual(a.Curve(), c.Curve()) {
		t.Fatal("two sampled runs over one stream diverged")
	}
	if a.Curve().SampleShift != 4 {
		t.Fatalf("SampleShift not recorded: got %d", a.Curve().SampleShift)
	}
	if got := a.Curve().SampleRate(); got != 1.0/16 {
		t.Fatalf("SampleRate = %v, want 1/16", got)
	}
}

// TestSampledConvergesToExact: on a Zipf-over-pages reference stream
// (the locality shape of the paper's workloads) the sampled fault
// curve must converge to the exact one. Sampling at rate 2^-k scales
// each sampled page's events by 2^k; with hundreds of distinct pages
// the estimator's relative error at the paper's sweep points is well
// inside 15% at k=2.
func TestSampledConvergesToExact(t *testing.T) {
	const shift = 2
	exact, sampled := NewStackSim(), NewStackSim(WithSampleShift(shift))
	r := rng.New(3)
	z := rng.NewZipf(1024, 0.9)
	var recent []uint64
	b := &trace.Block{}
	for i := 0; i < 400000; i++ {
		var page uint64
		rank := z.Sample(r)
		if rank < len(recent) {
			// Re-touch the rank-th most recent page: LRU-friendly reuse.
			page = recent[len(recent)-1-rank]
		} else {
			page = r.Uint64n(1 << 14)
		}
		recent = append(recent, page)
		if len(recent) > 1024 {
			recent = recent[1:]
		}
		b.Append(trace.Ref{Addr: page * DefaultPageSize, Size: 4})
	}
	exact.Block(b)
	sampled.Block(b)

	if exact.Curve().Refs != sampled.Curve().Refs {
		t.Fatalf("Refs must stay exact in sampled mode: %d vs %d",
			exact.Curve().Refs, sampled.Curve().Refs)
	}
	// Distinct-page (cold-fault) estimate.
	coldRel := relErr(float64(sampled.Curve().Cold), float64(exact.Curve().Cold))
	if coldRel > 0.15 {
		t.Errorf("cold-fault estimate off by %.1f%%: sampled %d vs exact %d",
			100*coldRel, sampled.Curve().Cold, exact.Curve().Cold)
	}
	// Fault counts along the exact curve's sweep points. Sampled
	// distances are quantized to multiples of 2^shift (a distance of d
	// sampled pages scales to d<<shift), and re-references that stay
	// between two touches of one sampled page fold to distance 0, so
	// the estimator is only meaningful for memory sizes comfortably
	// above the 2^shift resolution — which is the regime the paper's
	// fault curves live in.
	for _, p := range exact.Curve().Sweep() {
		est := sampled.Curve().Faults(p.Pages)
		if p.Pages < 1<<(shift+1) {
			continue // below the sampling resolution
		}
		if p.Faults < 2000 {
			continue // too few events for a relative bound
		}
		if rel := relErr(float64(est), float64(p.Faults)); rel > 0.15 {
			t.Errorf("faults(%d pages) off by %.1f%%: sampled %d vs exact %d",
				p.Pages, 100*rel, est, p.Faults)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
