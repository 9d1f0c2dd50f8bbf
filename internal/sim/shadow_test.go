package sim

import (
	"reflect"
	"sync"
	"testing"

	"mallocsim/internal/alloc/all"
	"mallocsim/internal/cache"
	"mallocsim/internal/workload"
)

// TestCheckedPaperMatrix runs the paper's full 5×5 matrix — every paper
// program through every paper allocator — under the shadow heap auditor
// with a tight audit cadence, in parallel (the -race CI job covers the
// checked code paths): every run must finish with zero contract
// violations and an empty oracle live set left only by design (the
// workloads leak their final live structures, so LiveBlocks is merely
// reported, not asserted).
func TestCheckedPaperMatrix(t *testing.T) {
	type pair struct{ prog, alloc string }
	var pairs []pair
	for _, p := range workload.PaperPrograms() {
		for _, a := range all.Paper {
			pairs = append(pairs, pair{p.Name, a})
		}
	}
	var wg sync.WaitGroup
	for _, pr := range pairs {
		wg.Add(1)
		go func(pr pair) {
			defer wg.Done()
			prog, _ := workload.ByName(pr.prog)
			res, err := Run(Config{
				Program:    prog,
				Allocator:  pr.alloc,
				Scale:      512,
				CheckHeap:  true,
				AuditEvery: 256,
			})
			if err != nil {
				t.Errorf("%s/%s: %v", pr.prog, pr.alloc, err)
				return
			}
			s := res.Shadow
			if s == nil {
				t.Errorf("%s/%s: CheckHeap run produced no shadow snapshot", pr.prog, pr.alloc)
				return
			}
			if s.Violations != 0 {
				for _, v := range s.First {
					t.Errorf("%s/%s: %s", pr.prog, pr.alloc, v.String())
				}
				t.Errorf("%s/%s: %d contract violations", pr.prog, pr.alloc, s.Violations)
			}
			if s.Ops == 0 {
				t.Errorf("%s/%s: oracle observed no operations", pr.prog, pr.alloc)
			}
		}(pr)
	}
	wg.Wait()
}

// TestCheckedRunMatchesUnchecked: the shadow wrapper and its periodic
// boundary-tag audits are host-side only, so a checked run at the
// default audit cadence must measure exactly what the unchecked run
// measures — per-domain instructions, references, cache results, the
// fault curve and the footprint — for every allocator implementing
// alloc.Checker, whose audits walk its heap during the run.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	prog, _ := workload.ByName("espresso")
	for _, name := range []string{"firstfit", "gnufit", "bestfit"} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Program:   prog,
				Allocator: name,
				Scale:     128,
				Caches:    []cache.Config{{Size: 16 << 10}, {Size: 64 << 10}},
				PageSim:   true,
			}
			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.CheckHeap = true
			checked, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := checked.Shadow; s == nil || s.Violations != 0 || s.Audits < 2 {
				t.Fatalf("checked run must be clean and audit during the run: %+v", s)
			}
			if base.Instr != checked.Instr {
				t.Errorf("instruction counts diverge: %+v vs %+v", base.Instr, checked.Instr)
			}
			if base.Refs != checked.Refs {
				t.Errorf("reference counts diverge: %+v vs %+v", base.Refs, checked.Refs)
			}
			if !reflect.DeepEqual(base.Caches, checked.Caches) {
				t.Errorf("cache results diverge: %+v vs %+v", base.Caches, checked.Caches)
			}
			if !reflect.DeepEqual(base.Curve, checked.Curve) {
				t.Error("fault curves diverge")
			}
			if base.Footprint != checked.Footprint {
				t.Errorf("footprints diverge: %d vs %d", base.Footprint, checked.Footprint)
			}
		})
	}
}
