package sim

import (
	"mallocsim/internal/obs"
)

// Report assembles the versioned machine-readable run report from
// everything the run measured. Observability fields (per-call
// histograms, time series, attribution) are present only when the run
// was configured with them; the end-of-run aggregates are always
// included.
func (r *Result) Report() *obs.Report {
	rep := obs.NewReport()
	rep.Program = r.Program
	rep.Allocator = r.Allocator
	rep.Scale = r.Scale
	rep.Seed = r.Seed
	rep.Workload = obs.WorkloadSummary{
		Allocs:    r.Workload.Allocs,
		Frees:     r.Workload.Frees,
		FinalLive: r.Workload.FinalLive,
		LiveBytes: r.Workload.LiveBytes,
		ReqBytes:  r.Workload.ReqBytes,
		Handoffs:  r.Workload.Handoffs,
	}
	rep.Instr = r.Instr
	rep.Refs = obs.RefSummary{
		Reads:      r.Refs.Reads,
		Writes:     r.Refs.Writes,
		BytesRead:  r.Refs.BytesRead,
		BytesWrote: r.Refs.BytesWrote,
	}
	rep.FootprintBytes = r.Footprint
	rep.TotalFootprintBytes = r.TotalFootprint

	if r.Recorder != nil {
		snap := r.Recorder.Snapshot()
		rep.Alloc = &snap
	}
	rep.Series = r.Series
	rep.Attribution = r.Attribution
	rep.Shadow = r.Shadow

	for _, c := range r.Caches {
		rep.Caches = append(rep.Caches, obs.CacheSummary{
			Config:   c.Config.String(),
			Accesses: c.Accesses,
			Misses:   c.Misses,
			MissRate: c.MissRate(),
		})
	}
	if r.Curve != nil {
		v := &obs.VMSummary{
			PageSize:      r.Curve.PageSize,
			Refs:          r.Curve.Refs,
			DistinctPages: r.Curve.DistinctPages(),
		}
		// Fault curve at power-of-two memory sizes up to the point where
		// only cold faults remain — the paper's Figures 2/3 x-axis.
		for _, p := range r.Curve.Sweep() {
			v.Curve = append(v.Curve, obs.VMPoint{
				Pages:     p.Pages,
				Faults:    p.Faults,
				FaultRate: p.FaultRate,
			})
		}
		rep.VM = v
	}
	rep.Sharing = r.Sharing
	return rep
}
