package main

import "mallocsim/internal/paper"

// workloadDef is one benchmark workload. Why each was chosen is recorded
// in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	// exps are the paper experiments a batch workload regenerates
	// through paper.Runner; nil for simd-jobs.
	exps []string
}

// batchScale is the paper.Runner scale of the batch workloads: the scale
// of the goldens, where a pass is short enough that a run holds a dozen
// or more and their median rides out bursts of host contention.
const batchScale = paper.GoldenScale

// batchSeeds is how many Runner seeds a batch run measures. A pass's
// cost depends on the seed (a server-sharing pass took 10 to 20% longer
// on one seed than on another, run after run), so a run's measuring
// processes take turns over batchSeeds of them and weigh each equally.
const batchSeeds = 3

// runnerSeed is the Runner seed of a batch run's k-th turn: seed s takes
// Runner seeds batchSeeds·s+1 … batchSeeds·s+batchSeeds, as simd-jobs'
// seed s takes workload seeds 5s+1 … 5s+5. The traced run uses the
// first.
func runnerSeed(seed uint64, k int) uint64 { return batchSeeds*seed + 1 + uint64(k) }

var workloads = []workloadDef{
	{name: "paper-churn", exps: []string{"figure6", "figure7", "figure9", "modern"}},
	{name: "paper-paging", exps: []string{"figure2", "figure3", "figure8"}},
	{name: "server-sharing", exps: []string{"server"}},
	{name: "simd-jobs"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// goldenExperiments are the experiments of every batch workload: each
// invocation replays them at paper.GoldenScale against the goldens.
func goldenExperiments() []string {
	var ids []string
	for _, w := range workloads {
		ids = append(ids, w.exps...)
	}
	return ids
}
