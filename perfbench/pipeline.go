package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/paper"
	"mallocsim/internal/sim"
	"mallocsim/internal/trace"
	"mallocsim/internal/vm"
	"mallocsim/internal/workload"
)

// pageSimPrograms are the programs whose pairs carry exact LRU page
// simulation in paper.Runner: the paper draws paging curves for gs and
// ptc only.
var pageSimPrograms = map[string]bool{"gs": true, "ptc": true}

// outputs is the simulated result of a pair that the benchmark holds
// fixed: reference counts, each cache's accesses and misses, the page
// fault curve and the sharing counts.
type outputs struct {
	Refs    trace.Counter
	Caches  []cache.Result
	Curve   *vm.Curve
	Sharing [3]uint64 // true events, false events, ping-pong lines
}

func (o outputs) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		// outputs holds only integers, slices and a struct pointer.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultOutputs extracts the held-fixed outputs of a paper.Runner
// result.
func resultOutputs(r *sim.Result) outputs {
	o := outputs{Refs: r.Refs, Caches: r.Caches, Curve: r.Curve}
	if r.Sharing != nil {
		o.Sharing = [3]uint64{r.Sharing.TrueEvents, r.Sharing.FalseEvents, r.Sharing.PingLines}
	}
	return o
}

// tracedPair is one pair run through the traced pipeline.
type tracedPair struct {
	pair          paper.Pair
	tr            *tracer
	out           outputs
	refs          uint64 // references every sink saw
	allocOps      uint64
	scanSteps     uint64
	flushes       uint64 // ring flushes (blocks delivered to each sink)
	rows          uint64 // block rows delivered to each sink
	pagesTouched  uint64
	distinctLines uint64
	distinctPages uint64
	sharingEvents uint64
	hasSharing    bool
}

// runTracedPair runs one pair through a pipeline built from the layers'
// public constructors and wired as sim.RunContext wires it for
// paper.Runner (exact page simulation, no recorder, no heap checking),
// with a timing tap around the allocator and around each sink.
func runTracedPair(ctx context.Context, p paper.Pair, scale, seed uint64) (*tracedPair, error) {
	if seed == 0 {
		seed = 1 // as sim.RunContext defaults it
	}
	tp := &tracedPair{pair: p, tr: newTracer(p.Program + "/" + p.Allocator)}
	tr := tp.tr
	tr.begin(layerPair)
	defer tr.end()

	tr.begin(layerSetup)
	srv, isServer := workload.ServerByName(p.Program)
	var prog workload.Program
	if !isServer {
		var ok bool
		if prog, ok = workload.ByName(p.Program); !ok {
			tr.end()
			return nil, fmt.Errorf("unknown program %q", p.Program)
		}
	}
	meter := &cost.Meter{}
	var counter trace.Counter
	counterTap := &sinkTap{inner: &counter, tr: tr, layer: layerCounter}
	sinks := []trace.Sink{counterTap}
	cfgs := make([]cache.Config, len(paper.CacheSizes))
	for i, s := range paper.CacheSizes {
		cfgs[i] = cache.Config{Size: s}
	}
	group := cache.NewGroup(cfgs...)
	sinks = append(sinks, &sinkTap{inner: group, tr: tr, layer: layerGroup})
	var pages *vm.StackSim
	if !isServer && pageSimPrograms[p.Program] {
		pages = vm.NewStackSim()
		sinks = append(sinks, &sinkTap{inner: pages, tr: tr, layer: layerStack})
	}
	m := mem.New(trace.NewTee(sinks...), meter)
	var sharing *cache.Sharing
	if isServer {
		sharing = cache.NewSharing(cache.SharingConfig{
			RegionOf: func(addr uint64) int {
				for i, r := range m.Regions() {
					if r.Contains(addr) {
						return i
					}
				}
				return 0
			},
		})
		sinks = append(sinks, &sinkTap{inner: sharing, tr: tr, layer: layerSharing})
		m.SetSink(trace.NewTee(sinks...))
	}
	m.SetBatching(0)
	a, err := alloc.New(p.Allocator, m)
	if err != nil {
		tr.end()
		return nil, err
	}
	at := newAllocTap(a, tr)
	tr.end()

	tr.begin(layerWorkload)
	if isServer {
		_, err = workload.RunServerContext(ctx, m, at, workload.ServerRunConfig{Scenario: srv, Scale: scale, Seed: seed})
	} else {
		_, err = workload.RunContext(ctx, m, at, workload.Config{Program: prog, Scale: scale, Seed: seed})
	}
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tr.op, err)
	}
	m.Flush() // the ring's tail reaches the sink taps as children of the pair

	// Reading results is work of the layer that holds them.
	tr.begin(layerGroup)
	tp.out.Caches = group.Results()
	tr.end()
	tp.distinctLines = tp.out.Caches[0].ColdLines
	if pages != nil {
		tr.begin(layerStack)
		tp.out.Curve = pages.Curve()
		tp.distinctPages = tp.out.Curve.DistinctPages()
		tr.end()
	}
	if sharing != nil {
		tr.begin(layerSharing)
		rep := sharing.Report()
		tr.end()
		tp.out.Sharing = [3]uint64{rep.True, rep.False, rep.PingLines}
		tp.sharingEvents = rep.True + rep.False
		tp.hasSharing = true
	}
	tp.out.Refs = counter
	tp.refs = counter.Total()
	tp.allocOps = at.ops
	tp.scanSteps = at.scanSteps()
	tp.flushes = counterTap.blocks
	tp.rows = counterTap.rows
	tp.pagesTouched = uint64(m.TouchedPages())
	return tp, nil
}
