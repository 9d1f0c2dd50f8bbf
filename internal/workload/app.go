package workload

import (
	"context"
	"strings"

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
	addr uint64 // its address in the lead lane
	slot uint32 // its address's index in the other lanes' slot tables; reused after free
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
	id     uint8
	slot   uint32 // its stack's base's index in the other lanes' slot tables
	stack  uint64 // its stack's base in the lead lane
	sp     uint64
	window [windowSize]*object
	wpos   int
}

// promote makes o the thread's most recently used object.
func (th *thread) promote(o *object) {
	th.window[th.wpos] = o
	th.wpos = (th.wpos + 1) % windowSize
}

// Lane is one member of a bundle: an allocator on its own memory. The
// allocator must already be constructed on Mem; Mem's sink and meter
// receive the lane's references and instructions.
type Lane struct {
	Mem   *mem.Memory
	Alloc alloc.Allocator
}

// lane is a Lane's replay state: everything that depends on the
// addresses its allocator returned.
type lane struct {
	m      *mem.Memory
	a      alloc.Allocator
	hinter alloc.LocalityHinter // non-nil only when a exploits hints
	site   alloc.SiteAllocator  // non-nil when a takes call sites but no hints
	meter  *cost.Meter

	// slots holds the lane's address for every slot — each thread's
	// stack base, the global segment's base and every live object —
	// unless the lane is the lead, which keeps its addresses inline.
	slots   []uint64
	nonHeap []*mem.Region // stacks + globals, excluded from heap samples
	samples []Sample

	// err is non-nil once the lane has stopped; stats are the shared
	// statistics at that moment.
	err   error
	stats Stats
}

// malloc allocates size bytes inside the Malloc cost domain, through
// the richest entry point the allocator has: the locality hint for
// hint-aware allocators, else the call site for site-aware ones, else
// plain Malloc.
func (l *lane) malloc(size, site, hint uint32) (uint64, error) {
	prev := l.meter.Enter(cost.Malloc)
	l.meter.Charge(alloc.CallOverhead)
	var addr uint64
	var err error
	switch {
	case l.hinter != nil:
		addr, err = l.hinter.MallocLocal(size, hint)
	case l.site != nil:
		addr, err = l.site.MallocSite(size, site)
	default:
		addr, err = l.a.Malloc(size)
	}
	l.meter.Enter(prev)
	return addr, err
}

// free returns addr to the allocator inside the Free cost domain.
func (l *lane) free(addr uint64) error {
	prev := l.meter.Enter(cost.Free)
	l.meter.Charge(alloc.CallOverhead)
	err := l.a.Free(addr)
	l.meter.Enter(prev)
	return err
}

// place records slot s's address. Every running lane but the lead sees
// every new slot, so a fresh one is always the next: the table grows to
// the stacks, the globals and the peak live count, and no further.
func (l *lane) place(s uint32, addr uint64) {
	if int(s) < len(l.slots) {
		l.slots[s] = addr
		return
	}
	l.slots = append(l.slots, addr)
}

// app is the application model both drivers share; only the schedule —
// when to allocate and free, and on which thread — is theirs. It owns
// the allocator call path, the live set, the global segment with its
// Zipf-hot words, the reference budget, the amortized cancellation poll
// of the free drains, and the run's Stats.
//
// One app drives a bundle of lanes. Every draw, schedule decision and
// live-set update happens once; each allocator call and each reference
// is then applied to every running lane, at that lane's addresses. No
// decision reads an address an allocator returned, so every lane sees
// exactly the stream its lone run sees. A lane whose allocator call
// fails stops alone, with the error its lone run returns; the others
// carry on unchanged.
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
	// m is the lead lane's memory and rest the other running lanes. The
	// lead keeps its addresses inline (object.addr, thread.stack,
	// globalBase) and takes each reference straight through m, so a lone
	// run references memory as directly as a driver without bundles; the
	// rest look their addresses up by slot (mirror). Once the lead stops,
	// m is a stand-in whose references go nowhere, so the reference path
	// never asks whether the lead still runs.
	m    *mem.Memory
	rest []*lane

	sizeRng *rng.Rand
	lifeRng *rng.Rand
	refRng  *rng.Rand

	// stackFrac and globalFrac split the reference budget between the
	// thread's stack and the global segment; the rest goes to the heap.
	stackFrac  float64
	globalFrac float64
	windowZipf *rng.Zipf
	globalZipf *rng.Zipf

	live       []*object
	liveBytes  uint64
	globalBase uint64   // the global segment's base in the lead lane
	globals    uint32   // the global segment's slot
	globalHot  []uint64 // offsets of the hot words in the global segment

	refsAcc  float64 // reference budget accumulator
	refsStep uint64  // references made this step
	frees    uint64  // amortized cancellation poll across all free drains

	lanes    []*lane  // every lane, in bundle order; lanes[0] is the lead
	running  []*lane  // the lanes not yet stopped, in bundle order
	freed    []uint32 // slots of freed objects, for reuse
	nextSlot uint32
	// setUp is set once every lane has its stacks and globals: a lane
	// that fails before has no statistics, as its lone run had none.
	setUp bool
	// where wraps a failed allocator call's error with the driver's
	// current position ("workload gs step 12: …"), as the lone run's
	// return path does.
	where func(error) error

	stats Stats
}

// newApp starts the application named name on every lane and returns
// it with the root generator, seeded from seed and the name.
func newApp(lanes []Lane, name string, seed uint64, stackFrac, globalFrac float64) (*app, *rng.Rand) {
	ap := &app{stackFrac: stackFrac, globalFrac: globalFrac, where: func(err error) error { return err }}
	for _, ln := range lanes {
		l := &lane{m: ln.Mem, a: ln.Alloc, meter: ln.Mem.Meter()}
		if l.meter == nil {
			l.meter = &cost.Meter{}
		}
		// Locality hints flow only to allocators that natively exploit
		// them. alloc.HintAware sees through instrumentation wrappers
		// (which implement MallocLocal unconditionally as a transparent
		// fallback): without the probe, a wrapped site-aware allocator
		// would be routed down the hint path and lose its site
		// information.
		if alloc.HintAware(l.a) {
			l.hinter, _ = l.a.(alloc.LocalityHinter)
		}
		if l.hinter == nil {
			l.site, _ = l.a.(alloc.SiteAllocator)
		}
		ap.lanes = append(ap.lanes, l)
	}
	ap.setRunning(append([]*lane(nil), ap.lanes...))
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

// AppRegion reports whether the region named region is one of the
// segments the application named app creates for itself — its stack
// "<app>-stack", a server thread's "<app>-stackN", or its globals
// "<app>-globals" — rather than allocator heap. Heap footprints leave
// these out.
func AppRegion(app, region string) bool {
	return region == app+"-globals" || strings.HasPrefix(region, app+"-stack")
}

// apply calls f on every running lane and stops each lane f fails on.
func (ap *app) apply(f func(l *lane) error) {
	for i := 0; i < len(ap.running); {
		if err := f(ap.running[i]); err != nil {
			ap.stop(i, err)
			continue
		}
		i++
	}
}

// stop ends running lane i with err, wrapped with the driver's
// position. The lane keeps the statistics of that moment and takes no
// further part in the run.
func (ap *app) stop(i int, err error) {
	l := ap.running[i]
	l.err = ap.where(err)
	if ap.setUp {
		l.stats = ap.snapshot(l)
	}
	ap.setRunning(append(ap.running[:i], ap.running[i+1:]...))
}

// setRunning makes running the running lanes and derives m and rest
// from them.
func (ap *app) setRunning(running []*lane) {
	ap.running = running
	if len(running) > 0 && running[0] == ap.lanes[0] {
		ap.m, ap.rest = running[0].m, running[1:]
		return
	}
	ap.m, ap.rest = mem.New(trace.Discard, nil), running
}

// place records a new address of l for slot s: at lead when l is the
// lead lane, in l's slot table otherwise.
func (ap *app) place(l *lane, lead *uint64, s uint32, addr uint64) {
	if l == ap.lanes[0] {
		*lead = addr
		return
	}
	l.place(s, addr)
}

// done reports whether every lane has stopped, so the driver can quit.
func (ap *app) done() bool { return len(ap.running) == 0 }

// snapshot returns the shared statistics with l's own samples.
func (ap *app) snapshot(l *lane) Stats {
	s := ap.stats
	s.Samples = l.samples
	return s
}

// results returns every lane's statistics and error, in bundle order.
// A non-nil err (a cancelled context, a bad configuration) ends every
// lane still running; otherwise they get the exit statistics.
func (ap *app) results(err error) ([]Stats, []error) {
	if err == nil {
		ap.stats.FinalLive = uint64(len(ap.live))
		for _, o := range ap.live {
			ap.stats.LiveBytes += uint64(o.size)
		}
	}
	stats := make([]Stats, len(ap.lanes))
	errs := make([]error, len(ap.lanes))
	for i, l := range ap.lanes {
		if l.err != nil {
			stats[i], errs[i] = l.stats, l.err
			continue
		}
		stats[i], errs[i] = ap.snapshot(l), err
	}
	return stats, errs
}

// newSlot returns a free slot, reusing a freed object's.
func (ap *app) newSlot() uint32 {
	if n := len(ap.freed); n > 0 {
		s := ap.freed[n-1]
		ap.freed = ap.freed[:n-1]
		return s
	}
	ap.nextSlot++
	return ap.nextSlot - 1
}

// newThread creates a thread with its own stack segment, a small,
// intensely hot region named name, in every lane.
func (ap *app) newThread(name string, id uint8) thread {
	th := thread{id: id, slot: ap.newSlot(), sp: 1024}
	ap.apply(func(l *lane) error {
		stack := l.m.NewRegion(name, 64*1024)
		sb, err := stack.Sbrk(8 * 1024)
		if err != nil {
			return err
		}
		l.nonHeap = append(l.nonHeap, stack)
		ap.place(l, &th.stack, th.slot, sb)
		return nil
	})
	return th
}

// newGlobals creates the global segment in every lane and draws its 64
// hot words. It ends the application's setup: the drivers create every
// thread first.
func (ap *app) newGlobals(size uint64) {
	ap.globals = ap.newSlot()
	ap.apply(func(l *lane) error {
		globals := l.m.NewRegion(ap.stats.Program+"-globals", 0)
		gb, err := globals.Sbrk(size)
		if err != nil {
			return err
		}
		l.nonHeap = append(l.nonHeap, globals)
		ap.place(l, &ap.globalBase, ap.globals, gb)
		return nil
	})
	ap.setUp = true
	ap.globalHot = make([]uint64, 64)
	for i := range ap.globalHot {
		ap.globalHot[i] = mem.AlignUp(ap.refRng.Uint64n(size-4), mem.WordSize)
	}
}

// setTid stamps the issuing thread on every running lane's references.
func (ap *app) setTid(tid uint8) {
	ap.m.SetTid(tid)
	for _, l := range ap.rest {
		l.m.SetTid(tid)
	}
}

// malloc draws an object size from d and allocates it in every running
// lane; the entry in d doubles as the call site.
func (ap *app) malloc(d sizeDist, hint uint32) *object {
	idx := d.dist.Sample(ap.sizeRng)
	size := d.sizes[idx]
	site := d.base + uint32(idx)
	o := &object{slot: ap.newSlot(), size: size, idx: len(ap.live)}
	ap.apply(func(l *lane) error {
		addr, err := l.malloc(size, site, hint)
		if err != nil {
			return err
		}
		ap.place(l, &o.addr, o.slot, addr)
		return nil
	})
	ap.stats.Allocs++
	ap.stats.ReqBytes += uint64(size)
	ap.liveBytes += uint64(size)
	ap.live = append(ap.live, o)
	return o
}

// free returns o to every running lane's allocator.
func (ap *app) free(o *object) {
	ap.apply(func(l *lane) error {
		if l == ap.lanes[0] {
			return l.free(o.addr)
		}
		return l.free(l.slots[o.slot])
	})
	ap.stats.Frees++
	ap.liveBytes -= uint64(o.size)
	o.dead = true
	last := len(ap.live) - 1
	ap.live[o.idx] = ap.live[last]
	ap.live[o.idx].idx = o.idx
	ap.live = ap.live[:last]
	ap.freed = append(ap.freed, o.slot)
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
		ap.free(q.pop().obj)
	}
	return nil
}

// sample appends one fragmentation sample to every running lane: the
// live payload against the heap its allocator requested.
func (ap *app) sample(step uint64) {
	for _, l := range ap.running {
		heap := l.m.Footprint()
		for _, r := range l.nonHeap {
			heap -= r.Size()
		}
		l.samples = append(l.samples, Sample{Step: step, LiveBytes: ap.liveBytes, HeapBytes: heap})
	}
}

// mirror makes, in every running lane but the lead, the n-byte
// reference the lead makes at offset off from its address: at offset
// off from slot s's address there. Each reference of the application
// is a mirror call followed by the lead's own call through m; in a lone
// run mirror inlines to one length test.
func (ap *app) mirror(s uint32, off uint64, n uint32, k trace.Kind) {
	for _, l := range ap.rest {
		l.m.Touch(l.slots[s]+off, n, k)
	}
}

// mirrorRun is mirror for a run of words word references (TouchRun).
func (ap *app) mirrorRun(s uint32, off, words uint64, k trace.Kind) {
	for _, l := range ap.rest {
		l.m.TouchRun(l.slots[s]+off, words, k)
	}
}

// initObject writes every word of the fresh object, as real programs
// initialize their allocations. Large objects (GhostScript buffers) can
// exceed one step's reference budget; the accumulator carries the debt
// forward so total references stay on target.
func (ap *app) initObject(o *object) {
	words := uint64(o.size) / mem.WordSize
	if words == 0 {
		ap.mirror(o.slot, 0, o.size, trace.Write)
		ap.m.Touch(o.addr, o.size, trace.Write)
		ap.refsStep++
		return
	}
	ap.mirrorRun(o.slot, 0, words, trace.Write)
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
		for _, l := range ap.running {
			l.meter.ChargeTo(cost.App, uint64(extra))
		}
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
	off := mem.AlignUp(th.sp-ap.refRng.Uint64n(16)*mem.WordSize, mem.WordSize)
	kind := trace.Read
	if ap.refRng.Bool(0.45) {
		kind = trace.Write
	}
	ap.mirror(th.slot, off, mem.WordSize, kind)
	ap.m.Touch(th.stack+off, mem.WordSize, kind)
}

// globalRef touches a Zipf-hot global word. The words are shared by
// every thread, so under the server's concurrent writers these lines
// ping-pong identically for every allocator — the allocator-independent
// true-sharing floor.
func (ap *app) globalRef() {
	off := ap.globalHot[ap.globalZipf.Sample(ap.refRng)]
	kind := trace.Read
	if ap.refRng.Bool(0.2) {
		kind = trace.Write
	}
	ap.mirror(ap.globals, off, mem.WordSize, kind)
	ap.m.Touch(ap.globalBase+off, mem.WordSize, kind)
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
		ap.mirror(o.slot, 0, o.size, trace.Read)
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
	ap.mirrorRun(o.slot, start*mem.WordSize, run, kind)
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
