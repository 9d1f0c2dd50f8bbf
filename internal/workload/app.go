package workload

import (
	"context"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// Stats summarizes a completed run (the raw material of Table 2).
type Stats struct {
	Program   string
	Allocs    uint64
	Frees     uint64
	FinalLive uint64
	// LiveBytes is the payload bytes still allocated at exit.
	LiveBytes uint64
	// ReqBytes is the total payload bytes requested over the run.
	ReqBytes uint64
	// Handoffs counts producer/consumer cross-thread frees: objects
	// allocated by one logical thread and freed by another. Always zero
	// for the (single-threaded) program driver; the server driver fills
	// it in.
	Handoffs uint64
	// Samples is the fragmentation time series (Config.SampleEvery).
	Samples []Sample
}

// recencyWindow is the temporal-locality model: the application mostly
// re-references recently used objects, Zipf-weighted by recency rank.
const (
	windowSize  = 32
	zipfExp     = 1.1
	windowProb  = 0.85 // else uniform over all live objects
	writeProb   = 0.3
	maxRunWords = 8
)

// cancelCheckEvery is the cancellation-poll cadence of the drivers'
// loops: every that many allocation steps, request bursts or drained
// frees they check whether their context is done. One step is a bounded
// amount of work (one malloc, the scheduled frees, and the step's
// reference budget), so the poll granularity keeps cancellation latency
// in the low milliseconds while the check itself — one interface call
// on a non-cancellable context — stays invisible in profiles.
const cancelCheckEvery = 1024

type object struct {
	addr uint64
	size uint32
	idx  int // position in the live slice
	dead bool
}

// deathEvent schedules an object's free.
type deathEvent struct {
	step uint64
	obj  *object
}

// deathQueue is a binary min-heap on step.
type deathQueue []deathEvent

func (q *deathQueue) push(e deathEvent) {
	*q = append(*q, e)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*q)[parent].step <= (*q)[i].step {
			break
		}
		(*q)[parent], (*q)[i] = (*q)[i], (*q)[parent]
		i = parent
	}
}

func (q *deathQueue) pop() deathEvent {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].step < h[smallest].step {
			smallest = l
		}
		if r < n && h[r].step < h[smallest].step {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// sizeDist is a discrete object-size distribution whose entries double
// as synthetic allocation sites: entry i is site base+i, the
// granularity at which Barrett & Zorn-style predictors observe
// programs.
type sizeDist struct {
	dist  *rng.Discrete
	sizes []uint32
	base  uint32
}

func newSizeDist(sw []SizeWeight, siteBase uint32) sizeDist {
	weights := make([]float64, len(sw))
	sizes := make([]uint32, len(sw))
	for i, e := range sw {
		weights[i] = e.Weight
		sizes[i] = e.Size
	}
	return sizeDist{dist: rng.NewDiscrete(weights), sizes: sizes, base: siteBase}
}

// thread is one logical thread of the application: a stack pointer
// random-walking in a private stack band, and a recency window of the
// heap objects it touched last. The program driver runs one thread;
// the server driver runs one per worker.
type thread struct {
	id        uint8
	stackBase uint64
	sp        uint64
	window    [windowSize]*object
	wpos      int
}

// promote makes o the thread's most recently used object.
func (th *thread) promote(o *object) {
	th.window[th.wpos] = o
	th.wpos = (th.wpos + 1) % windowSize
}

// app is the application model both drivers share; only the schedule —
// when to allocate and free, and on which thread — is theirs. It owns
// the allocator call path, the live set, the global segment with its
// Zipf-hot words, the reference budget, the amortized cancellation poll
// of the free drains, and the run's Stats.
//
// The draws are the contract that keeps every stream reproducible:
//   - newApp splits the root generator into size, life and ref streams,
//     in that order; a driver that needs more streams (the server's
//     route) splits them from the returned root afterwards.
//   - Every thread's stack region is created (newThread) before the
//     global segment (newGlobals), whose hot words are drawn from the
//     ref stream once all of them exist.
//   - malloc does not touch the recency windows: the program driver
//     promotes each new object as it is allocated, the server promotes
//     a request object when it arrives and never promotes a session.
type app struct {
	m      *mem.Memory
	a      alloc.Allocator
	hinter alloc.LocalityHinter // non-nil only when a exploits hints
	meter  *cost.Meter

	sizeRng *rng.Rand
	lifeRng *rng.Rand
	refRng  *rng.Rand

	// stackFrac and globalFrac split the reference budget between the
	// thread's stack and the global segment; the rest goes to the heap.
	stackFrac  float64
	globalFrac float64
	windowZipf *rng.Zipf
	globalZipf *rng.Zipf

	live      []*object
	liveBytes uint64
	globalHot []uint64
	nonHeap   []*mem.Region // stacks + globals, excluded from heap samples

	refsAcc  float64 // reference budget accumulator
	refsStep uint64  // references made this step
	frees    uint64  // amortized cancellation poll across all free drains

	stats Stats
}

// newApp starts the application named name against allocator a on
// memory m and returns it with the root generator, seeded from seed and
// the name.
func newApp(m *mem.Memory, a alloc.Allocator, name string, seed uint64, stackFrac, globalFrac float64) (*app, *rng.Rand) {
	ap := &app{m: m, a: a, meter: m.Meter(), stackFrac: stackFrac, globalFrac: globalFrac}
	if ap.meter == nil {
		ap.meter = &cost.Meter{}
	}
	// Locality hints flow only to allocators that natively exploit them.
	// alloc.HintAware sees through instrumentation wrappers (which
	// implement MallocLocal unconditionally as a transparent fallback):
	// without the probe, a wrapped site-aware allocator would be routed
	// down the hint path and lose its site information.
	if alloc.HintAware(a) {
		ap.hinter, _ = a.(alloc.LocalityHinter)
	}
	root := rng.New(seed ^ hashName(name))
	ap.sizeRng = root.Split()
	ap.lifeRng = root.Split()
	ap.refRng = root.Split()
	ap.windowZipf = rng.NewZipf(windowSize, zipfExp)
	ap.globalZipf = rng.NewZipf(64, 1.0)
	ap.stats.Program = name
	return ap, root
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// newThread creates a thread with its own stack segment, a small,
// intensely hot region named name.
func (ap *app) newThread(name string, id uint8) (thread, error) {
	stack := ap.m.NewRegion(name, 64*1024)
	sb, err := stack.Sbrk(8 * 1024)
	if err != nil {
		return thread{}, err
	}
	ap.nonHeap = append(ap.nonHeap, stack)
	return thread{id: id, stackBase: sb, sp: 1024}, nil
}

// newGlobals creates the global segment and draws its 64 hot words.
func (ap *app) newGlobals(size uint64) error {
	globals := ap.m.NewRegion(ap.stats.Program+"-globals", 0)
	gb, err := globals.Sbrk(size)
	if err != nil {
		return err
	}
	ap.nonHeap = append(ap.nonHeap, globals)
	ap.globalHot = make([]uint64, 64)
	for i := range ap.globalHot {
		ap.globalHot[i] = gb + mem.AlignUp(ap.refRng.Uint64n(size-4), mem.WordSize)
	}
	return nil
}

// malloc draws an object size from d and allocates it inside the Malloc
// cost domain, through the richest entry point the allocator has: the
// locality hint for hint-aware allocators, else the size's call site
// for site-aware ones, else plain Malloc.
func (ap *app) malloc(d sizeDist, hint uint32) (*object, error) {
	idx := d.dist.Sample(ap.sizeRng)
	size := d.sizes[idx]
	prev := ap.meter.Enter(cost.Malloc)
	ap.meter.Charge(alloc.CallOverhead)
	var addr uint64
	var err error
	if ap.hinter != nil {
		addr, err = ap.hinter.MallocLocal(size, hint)
	} else if sa, ok := ap.a.(alloc.SiteAllocator); ok {
		addr, err = sa.MallocSite(size, d.base+uint32(idx))
	} else {
		addr, err = ap.a.Malloc(size)
	}
	ap.meter.Enter(prev)
	if err != nil {
		return nil, err
	}
	ap.stats.Allocs++
	ap.stats.ReqBytes += uint64(size)
	ap.liveBytes += uint64(size)
	o := &object{addr: addr, size: size, idx: len(ap.live)}
	ap.live = append(ap.live, o)
	return o, nil
}

// free returns o to the allocator inside the Free cost domain.
func (ap *app) free(o *object) error {
	prev := ap.meter.Enter(cost.Free)
	ap.meter.Charge(alloc.CallOverhead)
	err := ap.a.Free(o.addr)
	ap.meter.Enter(prev)
	if err != nil {
		return err
	}
	ap.stats.Frees++
	ap.liveBytes -= uint64(o.size)
	o.dead = true
	last := len(ap.live) - 1
	ap.live[o.idx] = ap.live[last]
	ap.live[o.idx].idx = o.idx
	ap.live = ap.live[:last]
	return nil
}

// drainCanceled counts one free of a drain and reports whether ctx is
// done, checking every cancelCheckEvery frees. A drain is unbounded in
// step terms, so it cannot lean on its driver's step poll; ctx.Err() is
// nil until cancellation, so the poll leaves completed runs
// byte-identical.
func (ap *app) drainCanceled(ctx context.Context) bool {
	ap.frees++
	return ap.frees%cancelCheckEvery == 0 && ctx.Err() != nil
}

// freeDue frees every object q schedules at or before step.
func (ap *app) freeDue(ctx context.Context, q *deathQueue, step uint64) error {
	for len(*q) > 0 && (*q)[0].step <= step {
		if ap.drainCanceled(ctx) {
			return context.Cause(ctx)
		}
		if err := ap.free(q.pop().obj); err != nil {
			return err
		}
	}
	return nil
}

// finish fills in the exit statistics: the objects and payload bytes
// still live.
func (ap *app) finish() Stats {
	ap.stats.FinalLive = uint64(len(ap.live))
	for _, o := range ap.live {
		ap.stats.LiveBytes += uint64(o.size)
	}
	return ap.stats
}

// initObject writes every word of the fresh object, as real programs
// initialize their allocations. Large objects (GhostScript buffers) can
// exceed one step's reference budget; the accumulator carries the debt
// forward so total references stay on target.
func (ap *app) initObject(o *object) {
	words := uint64(o.size) / mem.WordSize
	if words == 0 {
		ap.m.Touch(o.addr, o.size, trace.Write)
		ap.refsStep++
		return
	}
	ap.m.TouchRun(o.addr, words, trace.Write)
	ap.refsStep += words
}

// spend tops the reference budget up by refs, less the references the
// step has already made, spends it on th, and charges pure-compute
// instructions to fill out the step's instr budget (each reference
// already charged one instruction).
func (ap *app) spend(th *thread, refs, instr float64) {
	ap.refsAcc += refs - float64(ap.refsStep)
	ap.emitRefs(th)
	if extra := instr - float64(ap.refsStep); extra > 1 {
		ap.meter.ChargeTo(cost.App, uint64(extra))
	}
}

// emitRefs spends the accumulated reference budget on a locality-shaped
// mix of th's stack, the globals and the heap.
func (ap *app) emitRefs(th *thread) {
	for ap.refsAcc >= 1 {
		r := ap.refRng.Float64()
		switch {
		case r < ap.stackFrac:
			ap.stackRef(th)
			ap.refsAcc--
			ap.refsStep++
		case r < ap.stackFrac+ap.globalFrac:
			ap.globalRef()
			ap.refsAcc--
			ap.refsStep++
		default:
			n := ap.heapRun(th)
			ap.refsAcc -= float64(n)
			ap.refsStep += n
		}
	}
}

// stackRef models a procedure-call stack: th's pointer random-walks in
// a narrow band of its private stack and references land near it.
func (ap *app) stackRef(th *thread) {
	delta := int64(ap.refRng.Uint64n(129)) - 64
	sp := int64(th.sp) + delta
	if sp < 64 {
		sp = 64
	}
	if sp > 1984 {
		sp = 1984
	}
	th.sp = uint64(sp)
	off := th.sp - ap.refRng.Uint64n(16)*mem.WordSize
	kind := trace.Read
	if ap.refRng.Bool(0.45) {
		kind = trace.Write
	}
	ap.m.Touch(th.stackBase+mem.AlignUp(off, mem.WordSize), mem.WordSize, kind)
}

// globalRef touches a Zipf-hot global word. The words are shared by
// every thread, so under the server's concurrent writers these lines
// ping-pong identically for every allocator — the allocator-independent
// true-sharing floor.
func (ap *app) globalRef() {
	addr := ap.globalHot[ap.globalZipf.Sample(ap.refRng)]
	kind := trace.Read
	if ap.refRng.Bool(0.2) {
		kind = trace.Write
	}
	ap.m.Touch(addr, mem.WordSize, kind)
}

// heapRun references a short sequential run of words inside one live
// object, chosen mostly from th's recency window (temporal locality)
// and otherwise uniformly from the whole live set — for the server,
// occasionally another thread's object.
func (ap *app) heapRun(th *thread) uint64 {
	o := ap.pickObject(th)
	if o == nil {
		// Nothing live: burn one reference on the stack instead.
		ap.stackRef(th)
		return 1
	}
	words := uint64(o.size) / mem.WordSize
	if words == 0 {
		ap.m.Touch(o.addr, o.size, trace.Read)
		return 1
	}
	start := ap.refRng.Uint64n(words)
	run := 1 + ap.refRng.Uint64n(maxRunWords)
	if run > words-start {
		run = words - start
	}
	kind := trace.Read
	if ap.refRng.Bool(writeProb) {
		kind = trace.Write
	}
	ap.m.TouchRun(o.addr+start*mem.WordSize, run, kind)
	th.promote(o)
	return run
}

func (ap *app) pickObject(th *thread) *object {
	if len(ap.live) == 0 {
		return nil
	}
	if ap.refRng.Bool(windowProb) {
		// Most recent = rank 0: the window is a ring, so walk back from
		// the last insertion point.
		rank := ap.windowZipf.Sample(ap.refRng)
		pos := (th.wpos - 1 - rank + 2*windowSize) % windowSize
		if o := th.window[pos]; o != nil && !o.dead {
			return o
		}
	}
	return ap.live[ap.refRng.Intn(len(ap.live))]
}
