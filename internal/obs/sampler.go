package obs

import (
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
	"mallocsim/internal/vm"
)

// CachePoint is one cache configuration's state at a sample point:
// cumulative counts since the start of the run, plus the interval
// (windowed) counts since the previous sample — the quantity that
// exposes phase behaviour, which cumulative rates smooth away.
type CachePoint struct {
	Config           string  `json:"config"`
	Accesses         uint64  `json:"accesses"`
	Misses           uint64  `json:"misses"`
	MissRate         float64 `json:"miss_rate"`
	IntervalAccesses uint64  `json:"interval_accesses"`
	IntervalMisses   uint64  `json:"interval_misses"`
	IntervalMissRate float64 `json:"interval_miss_rate"`
}

// SamplePoint is one point of the operation-time series.
type SamplePoint struct {
	// Op is the malloc/free operation count at the sample.
	Op uint64 `json:"op"`
	// Refs is the number of data references seen by the sampler.
	Refs uint64 `json:"refs"`
	// Instr is the cumulative per-domain instruction split.
	Instr cost.Snapshot `json:"instr"`

	LiveObjects int64 `json:"live_objects"`
	LiveBytes   int64 `json:"live_bytes"`
	// FootprintBytes is the memory requested from the OS across all
	// regions (heap, state, stack and globals).
	FootprintBytes uint64 `json:"footprint_bytes"`
	// TouchedPages counts distinct backing pages materialized so far.
	TouchedPages int `json:"touched_pages"`

	Caches []CachePoint `json:"caches,omitempty"`
	// DistinctPages is the VM simulator's distinct-page count (only
	// when page simulation is enabled).
	DistinctPages uint64 `json:"distinct_pages,omitempty"`
}

// Sampler snapshots the run's observable state every Every malloc/free
// operations, producing the phase-behaviour time series the paper's
// end-of-run tables cannot show. It implements trace.Sink so it can sit
// in the reference tee (counting refs); the sampling trigger itself is
// the recorder's per-operation hook, installed by Bind.
//
// All source fields are optional: a nil Mem, Group, Pages or Meter
// simply leaves the corresponding sample fields zero.
type Sampler struct {
	// Every is the operation sampling interval; 0 defaults to 1024.
	Every uint64

	Mem   *mem.Memory
	Meter *cost.Meter
	Group *cache.Group
	Pages *vm.StackSim

	rec    *Recorder
	refs   uint64
	points []SamplePoint
	prev   []cache.Result
}

// Bind attaches the sampler to a recorder: every Every operations
// (counted across mallocs and frees, failures included) one sample
// point is captured. Bind must be called before the run starts.
func (s *Sampler) Bind(rec *Recorder) {
	if s.Every == 0 {
		s.Every = 1024
	}
	s.rec = rec
	rec.onOp = func(op uint64) {
		if op%s.Every == 0 {
			s.capture(op)
		}
	}
}

// Ref implements trace.Sink, counting references.
func (s *Sampler) Ref(trace.Ref) { s.refs++ }

// Block implements trace.BlockSink, counting the block's references
// (a run row counts every reference it stands for).
func (s *Sampler) Block(b *trace.Block) { s.refs += uint64(b.Refs()) }

// Points returns the captured time series.
func (s *Sampler) Points() []SamplePoint { return s.points }

// capture appends one sample point. With a batching mem.Memory, the
// trigger (the recorder's per-operation hook) fires outside the
// reference stream, so any buffered references are flushed first to
// keep the sampled counters (Refs, cache results, page counts) exact.
func (s *Sampler) capture(op uint64) {
	if s.Mem != nil {
		s.Mem.Flush()
	}
	p := SamplePoint{Op: op, Refs: s.refs}
	if s.Meter != nil {
		p.Instr = s.Meter.Snapshot()
	}
	if s.rec != nil {
		p.LiveObjects = s.rec.LiveObjects.Value()
		p.LiveBytes = s.rec.LiveBytes.Value()
	}
	if s.Mem != nil {
		p.FootprintBytes = s.Mem.Footprint()
		p.TouchedPages = s.Mem.TouchedPages()
	}
	if s.Group != nil {
		results := s.Group.Results()
		p.Caches = make([]CachePoint, len(results))
		for i, r := range results {
			cp := CachePoint{
				Config:   r.Config.String(),
				Accesses: r.Accesses,
				Misses:   r.Misses,
				MissRate: r.MissRate(),
			}
			if i < len(s.prev) {
				cp.IntervalAccesses = r.Accesses - s.prev[i].Accesses
				cp.IntervalMisses = r.Misses - s.prev[i].Misses
			} else {
				cp.IntervalAccesses = r.Accesses
				cp.IntervalMisses = r.Misses
			}
			if cp.IntervalAccesses > 0 {
				cp.IntervalMissRate = float64(cp.IntervalMisses) / float64(cp.IntervalAccesses)
			}
			p.Caches[i] = cp
		}
		s.prev = results
	}
	if s.Pages != nil {
		p.DistinctPages = uint64(s.Pages.DistinctPages())
	}
	s.points = append(s.points, p)
}
