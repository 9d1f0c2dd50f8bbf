package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// epoch is the zero of every span timestamp; time.Since reads only the
// monotonic clock, which keeps a span boundary to a few tens of ns.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer, made from the benchmark's side
// of the layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Op     string `json:"op"` // the pair ("program/allocator") or job the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer names what a pipeline span times.
type layer uint8

const (
	layerPair     layer = iota // one (program, allocator) pair, the root
	layerSetup                 // pipeline construction
	layerWorkload              // workload.RunContext / RunServerContext
	layerAlloc                 // one allocator call
	layerCounter               // the trace.Counter sink
	layerGroup                 // the cache.Group sink
	layerStack                 // the vm.StackSim sink
	layerSharing               // the cache.Sharing sink
	numLayers
)

var layerNames = [numLayers]string{
	"pair", "sim.setup", "workload", "alloc",
	"trace.counter", "cache.group", "vm.stack", "cache.sharing",
}

// kept marks the layers whose spans are kept one by one. The others run
// once per allocator call or per ring flush — millions of times a pass
// — so their spans are folded into per-(parent, layer) totals as they
// close instead of being stored.
var kept = [numLayers]bool{layerPair: true, layerSetup: true, layerWorkload: true}

// root is the parent index of a span with no parent.
const root = int(numLayers)

type frame struct {
	layer layer
	start int64
	child int64 // time covered by direct children
	id    int   // index into tracer.spans, or -1 for a folded span
}

// tracer records the spans of one pair. It is owned by the goroutine
// running the pair; nested begin/end calls form the span tree, so a
// ring flush fired inside a Free becomes that Free's child.
type tracer struct {
	op    string
	stack []frame
	spans []span
	// Per (parent layer, layer): span count, summed duration, and summed
	// self time (duration minus the time its children cover).
	count [numLayers + 1][numLayers]int64
	total [numLayers + 1][numLayers]int64
	self  [numLayers + 1][numLayers]int64
}

func newTracer(op string) *tracer { return &tracer{op: op} }

func (t *tracer) begin(l layer) {
	f := frame{layer: l, id: -1}
	if kept[l] {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].id
		}
		f.id = len(t.spans)
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Name: layerNames[l], Op: t.op})
	}
	f.start = now()
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	end := now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - f.start
	parent := root
	if n > 0 {
		t.stack[n-1].child += dur
		parent = int(t.stack[n-1].layer)
	}
	t.count[parent][f.layer]++
	t.total[parent][f.layer] += dur
	t.self[parent][f.layer] += dur - f.child
	if f.id >= 0 {
		t.spans[f.id].Start, t.spans[f.id].End = f.start, end
	}
}

// selfNs returns the self time of every span of layer l, in ns.
func (t *tracer) selfNs(l layer) int64 {
	var s int64
	for p := range t.self {
		s += t.self[p][l]
	}
	return s
}

// spanNs returns the summed duration of the spans of layer l.
func (t *tracer) spanNs(l layer) int64 {
	var s int64
	for p := range t.total {
		s += t.total[p][l]
	}
	return s
}

// aggregate is the written form of one folded (parent, layer) total.
type aggregate struct {
	Op      string `json:"op"`
	Parent  string `json:"parent"`
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (t *tracer) aggregates() []aggregate {
	var out []aggregate
	for p := range t.count {
		for l := layer(0); l < numLayers; l++ {
			if t.count[p][l] == 0 || kept[l] {
				continue
			}
			parent := "-"
			if p != root {
				parent = layerNames[p]
			}
			out = append(out, aggregate{Op: t.op, Parent: parent, Name: layerNames[l],
				Count: t.count[p][l], TotalNs: t.total[p][l], SelfNs: t.self[p][l]})
		}
	}
	return out
}

// spanLog collects spans recorded from several goroutines at once: the
// simd client and the store wrapper the server's goroutines call.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span whose bounds were measured elsewhere, such as the
// phase stamps of a job document, and returns its id.
func (l *spanLog) add(name, op string, parent int, start, end int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: start, End: end})
	return id
}

// durations returns the durations (ms) of the spans with any of the
// given names.
func (l *spanLog) durations(names ...string) sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out sample
	for _, s := range l.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, float64(s.End-s.Start)/1e6)
			}
		}
	}
	return out
}

// count returns how many spans carry the name.
func (l *spanLog) count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// writeSpans writes the kept spans, renumbered into one id space, then
// the folded totals, as JSON lines. Spans stay in memory until this one
// write at the end of the run.
func writeSpans(path string, header any, groups [][]span, aggs []aggregate) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	offset := 0
	for _, g := range groups {
		for _, s := range g {
			if err != nil {
				break
			}
			s.ID += offset
			if s.Parent >= 0 {
				s.Parent += offset
			}
			err = enc.Encode(s)
		}
		offset += len(g)
	}
	for _, a := range aggs {
		if err != nil {
			break
		}
		err = enc.Encode(a)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
