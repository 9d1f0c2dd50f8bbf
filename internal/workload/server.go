package workload

import (
	"context"
	"fmt"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// ServerConfig models a server-shaped concurrent workload: N logical
// threads serving a bursty request stream against shared long-lived
// session state. Each request is routed to a thread, which allocates
// per-request objects (stamped with its tid — see mem.Memory.SetTid),
// touches a Zipf-hot session owned by whichever thread last renewed it,
// and either frees its request state locally or hands it to a consumer
// thread that reads it and frees it there (a producer/consumer
// cross-thread free). Interleaved arrivals put different threads'
// small objects on the same cache lines under shared-heap allocators —
// the false-sharing placement artifact the sharing attributor measures
// — while session headers, handoff payloads and hot globals produce
// true sharing for every allocator.
//
// The model runs on one goroutine: "threads" are logical identities
// replayed deterministically via internal/rng, so runs are
// byte-identical at any simulator worker count.
type ServerConfig struct {
	// Name identifies the scenario ("server"); it doubles as the
	// program name in reports and memoization keys, so it must not
	// collide with the Program catalog.
	Name string
	// Description summarizes the scenario.
	Description string

	// Threads is the number of logical worker threads (2..63 — the
	// sharing attributor tracks holders in a 64-bit mask).
	Threads int
	// Requests is the full-scale (scale 1) request count.
	Requests uint64
	// Instr and DataRefs are full-scale totals, like Program's.
	Instr    uint64
	DataRefs uint64

	// Sessions is the number of live long-lived session objects; like
	// Program's immortal count it is not scaled down.
	Sessions int
	// SessionSizes and ReqSizes are the object-size distributions of
	// session state and per-request churn.
	SessionSizes []SizeWeight
	ReqSizes     []SizeWeight
	// SessionLife is the geometric mean session lifetime in requests;
	// an expired session is freed and reallocated by the thread that
	// noticed, migrating its ownership.
	SessionLife float64
	// ReqLife is the geometric mean lifetime (in requests) of request
	// objects that are not handed off.
	ReqLife float64

	// BurstMean is the geometric mean arrival-burst size: requests in a
	// burst are routed round-robin across threads and their allocations
	// interleave in the allocator's stream.
	BurstMean float64
	// HandoffFrac is the fraction of request objects handed to a
	// consumer thread, which reads the payload and frees it.
	HandoffFrac float64

	// StackFrac and GlobalFrac split data references between each
	// thread's stack and the shared global segment; the rest go to the
	// heap.
	StackFrac  float64
	GlobalFrac float64
	// GlobalBytes is the size of the shared global segment.
	GlobalBytes uint64
}

// RefsPerRequest returns the mean data references per request.
func (c ServerConfig) RefsPerRequest() float64 {
	return float64(c.DataRefs) / float64(c.Requests)
}

// InstrPerRequest returns the mean instructions per request.
func (c ServerConfig) InstrPerRequest() float64 {
	return float64(c.Instr) / float64(c.Requests)
}

// Synthetic call sites for the server scenario's size classes, disjoint
// from the program driver's churn/immortal bases.
const (
	reqSiteBase     = 2001
	sessionSiteBase = 3001
)

var serverCatalog = []ServerConfig{
	{
		Name:        "server",
		Description: "8-thread request/response server: bursty arrivals, producer/consumer frees, Zipf-hot shared sessions",
		Threads:     8,
		Requests:    1024 * k,
		Instr:       448 * m,
		DataRefs:    128 * m,
		Sessions:    512,
		SessionSizes: []SizeWeight{
			{64, 2}, {96, 2}, {128, 1.5}, {192, 1}, {256, 0.6}, {512, 0.2},
		},
		ReqSizes: []SizeWeight{
			{16, 2}, {24, 3}, {32, 2}, {48, 1}, {64, 0.6}, {128, 0.2},
		},
		SessionLife: 4000,
		ReqLife:     24,
		BurstMean:   6,
		HandoffFrac: 0.35,
		StackFrac:   0.30,
		GlobalFrac:  0.08,
		GlobalBytes: 32 * 1024,
	},
}

// ServerScenarios returns the concurrent scenario catalog.
func ServerScenarios() []ServerConfig {
	out := make([]ServerConfig, len(serverCatalog))
	copy(out, serverCatalog)
	return out
}

// ServerByName looks a server scenario up by its catalog name.
func ServerByName(name string) (ServerConfig, bool) {
	for _, c := range serverCatalog {
		if c.Name == name {
			return c, true
		}
	}
	return ServerConfig{}, false
}

// ServerRunConfig parameterizes one server-driver run; Scale and Seed
// behave exactly as in Config.
type ServerRunConfig struct {
	Scenario ServerConfig
	Scale    uint64
	Seed     uint64
	// DisableLocalityHints forces the plain Malloc/MallocSite path, as
	// in Config. The server's hint is the allocating thread's id, so a
	// hint-aware allocator can segregate per-thread streams into
	// per-thread arenas.
	DisableLocalityHints bool
}

// serverThread is one logical worker's replay state.
type serverThread struct {
	id        uint8
	stackBase uint64
	sp        uint64
	window    [windowSize]*object
	wpos      int
	// inbox holds objects produced by other threads and handed to this
	// one: the consumer reads the payload and frees it cross-thread.
	inbox []*object
	// deaths schedules this thread's local request-object frees, keyed
	// by global request index.
	deaths deathQueue
}

// serverSession is one long-lived session slot.
type serverSession struct {
	obj  *object
	dies uint64 // global request index at which the session expires
}

type serverDriver struct {
	m      *mem.Memory
	a      alloc.Allocator
	hinter alloc.LocalityHinter
	meter  *cost.Meter
	scen   ServerConfig

	sizeRng  *rng.Rand
	lifeRng  *rng.Rand
	refRng   *rng.Rand
	routeRng *rng.Rand

	reqDist     *rng.Discrete
	reqSizes    []uint32
	sesDist     *rng.Discrete
	sesSizes    []uint32
	windowZipf  *rng.Zipf
	globalZipf  *rng.Zipf
	sessionZipf *rng.Zipf

	threads  []serverThread
	sessions []serverSession

	live       []*object
	globalBase uint64
	globalHot  []uint64

	refsAcc  float64
	refsStep uint64

	liveBytes uint64
	frees     uint64 // amortized cancellation poll across all free drains

	stats Stats
}

// RunServer drives the server scenario against allocator a on memory m.
// Like Run it requires the allocator to be constructed on the same
// memory; references flow to m's sink with the issuing thread stamped
// via SetTid, so a cache.Sharing sink downstream sees per-thread
// streams.
func RunServer(m *mem.Memory, a alloc.Allocator, cfg ServerRunConfig) (Stats, error) {
	return RunServerContext(context.Background(), m, a, cfg)
}

// RunServerContext is RunServer with cooperative cancellation: the
// burst loop and every free-queue drain (local death queues and the
// cross-thread inboxes) poll ctx on amortized counters, so cancellation
// latency stays bounded without perturbing completed runs.
func RunServerContext(ctx context.Context, m *mem.Memory, a alloc.Allocator, cfg ServerRunConfig) (Stats, error) {
	scen := cfg.Scenario
	if scen.Threads < 2 || scen.Threads > 63 {
		return Stats{}, fmt.Errorf("workload: server scenario %q needs 2..63 threads, got %d", scen.Name, scen.Threads)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	d := &serverDriver{m: m, a: a, meter: m.Meter(), scen: scen}
	if d.meter == nil {
		d.meter = &cost.Meter{}
	}
	if !cfg.DisableLocalityHints && alloc.HintAware(a) {
		d.hinter, _ = a.(alloc.LocalityHinter)
	}

	root := rng.New(cfg.Seed ^ hashName(scen.Name))
	d.sizeRng = root.Split()
	d.lifeRng = root.Split()
	d.refRng = root.Split()
	d.routeRng = root.Split()

	d.reqDist, d.reqSizes = buildDist(scen.ReqSizes)
	d.sesDist, d.sesSizes = buildDist(scen.SessionSizes)
	d.windowZipf = rng.NewZipf(windowSize, zipfExp)
	d.globalZipf = rng.NewZipf(64, 1.0)
	d.sessionZipf = rng.NewZipf(scen.Sessions, 1.05)

	// Per-thread stack segments plus one shared global segment; all are
	// excluded from heap metrics by the simulation driver (they belong
	// to the application, not the allocator).
	d.threads = make([]serverThread, scen.Threads)
	for t := range d.threads {
		if ctx.Err() != nil {
			return d.stats, fmt.Errorf("server %s: aborted during setup: %w", scen.Name, context.Cause(ctx))
		}
		stack := m.NewRegion(fmt.Sprintf("%s-stack%d", scen.Name, t), 64*1024)
		sb, err := stack.Sbrk(8 * 1024)
		if err != nil {
			return Stats{}, err
		}
		d.threads[t] = serverThread{id: uint8(t), stackBase: sb, sp: 1024}
	}
	globals := m.NewRegion(scen.Name+"-globals", 0)
	gb, err := globals.Sbrk(scen.GlobalBytes)
	if err != nil {
		return Stats{}, err
	}
	d.globalBase = gb
	d.globalHot = make([]uint64, 64)
	for i := range d.globalHot {
		d.globalHot[i] = gb + mem.AlignUp(d.refRng.Uint64n(scen.GlobalBytes-4), mem.WordSize)
	}

	nReqs := scen.Requests / cfg.Scale
	if nReqs == 0 {
		nReqs = 1
	}
	d.stats.Program = scen.Name

	// Prime the session table: long-lived state allocated round-robin,
	// so initial ownership is spread across the threads.
	d.sessions = make([]serverSession, scen.Sessions)
	for i := range d.sessions {
		if i%cancelCheckEvery == 0 && ctx.Err() != nil {
			return d.stats, fmt.Errorf("server %s: aborted priming sessions: %w", scen.Name, context.Cause(ctx))
		}
		t := i % scen.Threads
		m.SetTid(uint8(t))
		obj, err := d.malloc(t, d.sesDist, d.sesSizes, sessionSiteBase)
		if err != nil {
			return d.stats, fmt.Errorf("server %s: priming session %d: %w", scen.Name, i, err)
		}
		d.initObject(obj)
		d.sessions[i] = serverSession{obj: obj, dies: 1 + d.lifeRng.Geometric(scen.SessionLife)}
	}

	refsPerReq := scen.RefsPerRequest()
	instrPerReq := scen.InstrPerRequest()
	var (
		req       uint64
		bursts    uint64
		rrBase    int
		burst     []int
		burstObjs []*object
	)
	for req < nReqs {
		bursts++
		if bursts%cancelCheckEvery == 0 && ctx.Err() != nil {
			return d.stats, fmt.Errorf("server %s: aborted at request %d/%d: %w",
				scen.Name, req, nReqs, context.Cause(ctx))
		}
		n := 1 + d.lifeRng.Geometric(scen.BurstMean)
		if n > nReqs-req {
			n = nReqs - req
		}
		burst = burst[:0]
		for i := uint64(0); i < n; i++ {
			burst = append(burst, (rrBase+int(i))%scen.Threads)
		}
		// Advance the round-robin base with a little jitter so burst
		// boundaries do not lock thread t to arrival slot t forever.
		rrBase = (rrBase + int(n%uint64(scen.Threads)) + int(d.routeRng.Uint64n(3))) % scen.Threads

		// Phase 1 — arrivals: every routed thread allocates and
		// initializes its request state back to back, interleaving the
		// threads' allocation streams at the allocator.
		burstObjs = burstObjs[:0]
		for i, t := range burst {
			if i%cancelCheckEvery == 0 && ctx.Err() != nil {
				return d.stats, fmt.Errorf("server %s: aborted at request %d/%d: %w",
					scen.Name, req, nReqs, context.Cause(ctx))
			}
			obj, err := d.arrive(t)
			if err != nil {
				return d.stats, fmt.Errorf("server %s request %d: %w", scen.Name, req, err)
			}
			burstObjs = append(burstObjs, obj)
		}
		// Phase 2 — processing: drain queues, touch the session, spend
		// the reference budget, then retire the request state.
		for i, t := range burst {
			if err := d.process(ctx, t, req+uint64(i), burstObjs[i], refsPerReq, instrPerReq); err != nil {
				return d.stats, err
			}
		}
		req += n
	}

	// Retire every parked handoff so the cross-thread queues end empty.
	for t := range d.threads {
		d.m.SetTid(d.threads[t].id)
		if err := d.drainInbox(ctx, &d.threads[t]); err != nil {
			return d.stats, err
		}
	}

	d.stats.FinalLive = uint64(len(d.live))
	for _, o := range d.live {
		d.stats.LiveBytes += uint64(o.size)
	}
	return d.stats, nil
}

// arrive allocates and initializes one request object on thread t.
func (d *serverDriver) arrive(t int) (*object, error) {
	d.m.SetTid(uint8(t))
	obj, err := d.malloc(t, d.reqDist, d.reqSizes, reqSiteBase)
	if err != nil {
		return nil, err
	}
	d.refsStep = 0
	d.initObject(obj)
	// The init words count against the request's reference budget,
	// which process() tops up.
	d.refsAcc -= float64(d.refsStep)
	th := &d.threads[t]
	th.window[th.wpos] = obj
	th.wpos = (th.wpos + 1) % windowSize
	return obj, nil
}

// process handles one request on thread t: drain the thread's free
// queues, do the session work, spend the reference budget, and either
// hand the request object to a consumer or schedule its local death.
func (d *serverDriver) process(ctx context.Context, t int, reqIdx uint64, obj *object, refsPerReq, instrPerReq float64) error {
	d.m.SetTid(uint8(t))
	th := &d.threads[t]
	d.refsStep = 0

	// Local deaths due at this request happen first (the recycling
	// opportunity), then the cross-thread inbox; both drains are
	// unbounded in request terms and poll on the shared frees counter.
	for len(th.deaths) > 0 && th.deaths[0].step <= reqIdx {
		d.frees++
		if d.frees%cancelCheckEvery == 0 && ctx.Err() != nil {
			return fmt.Errorf("server %s: aborted at request %d: %w",
				d.scen.Name, reqIdx, context.Cause(ctx))
		}
		ev := th.deaths.pop()
		if err := d.free(ev.obj); err != nil {
			return fmt.Errorf("server %s request %d: %w", d.scen.Name, reqIdx, err)
		}
	}
	if err := d.drainInbox(ctx, th); err != nil {
		return fmt.Errorf("server %s request %d: %w", d.scen.Name, reqIdx, err)
	}

	if err := d.touchSession(th, reqIdx); err != nil {
		return fmt.Errorf("server %s request %d: %w", d.scen.Name, reqIdx, err)
	}

	d.refsAcc += refsPerReq - float64(d.refsStep)
	d.emitRefs(th)
	if extra := instrPerReq - float64(d.refsStep); extra > 1 {
		d.meter.ChargeTo(cost.App, uint64(extra))
	}

	if d.routeRng.Bool(d.scen.HandoffFrac) {
		// Producer/consumer handoff: a different thread will read the
		// payload and free it.
		consumer := (t + 1 + int(d.routeRng.Uint64n(uint64(d.scen.Threads-1)))) % d.scen.Threads
		d.threads[consumer].inbox = append(d.threads[consumer].inbox, obj)
	} else {
		death := reqIdx + 1 + d.lifeRng.Geometric(d.scen.ReqLife)
		th.deaths.push(deathEvent{step: death, obj: obj})
	}
	return nil
}

// drainInbox consumes every object handed to th: the consumer reads the
// payload the producer wrote (true sharing on the object's lines), then
// frees it cross-thread. The drain is unbounded in request terms, so —
// like the local death drain — it polls cancellation on the shared
// amortized frees counter.
func (d *serverDriver) drainInbox(ctx context.Context, th *serverThread) error {
	for len(th.inbox) > 0 {
		d.frees++
		if d.frees%cancelCheckEvery == 0 && ctx.Err() != nil {
			return fmt.Errorf("server %s: aborted draining thread %d inbox: %w",
				d.scen.Name, th.id, context.Cause(ctx))
		}
		o := th.inbox[len(th.inbox)-1]
		th.inbox = th.inbox[:len(th.inbox)-1]
		words := uint64(o.size) / mem.WordSize
		if words == 0 {
			d.m.Touch(o.addr, o.size, trace.Read)
			d.refsStep++
		} else {
			if words > maxRunWords {
				words = maxRunWords
			}
			d.m.TouchRun(o.addr, words, trace.Read)
			d.refsStep += words
		}
		if err := d.free(o); err != nil {
			return err
		}
		d.stats.Handoffs++
	}
	return nil
}

// touchSession does the request's session work: read the Zipf-chosen
// session's header (words every handling thread reads — true sharing),
// bump its counter word, and renew it when it has expired (freeing the
// old state, often across threads, and becoming the new owner).
func (d *serverDriver) touchSession(th *serverThread, reqIdx uint64) error {
	i := d.sessionZipf.Sample(d.refRng)
	s := &d.sessions[i]
	if reqIdx >= s.dies {
		if err := d.free(s.obj); err != nil {
			return err
		}
		obj, err := d.malloc(int(th.id), d.sesDist, d.sesSizes, sessionSiteBase)
		if err != nil {
			return err
		}
		d.initObject(obj)
		s.obj = obj
		s.dies = reqIdx + 1 + d.lifeRng.Geometric(d.scen.SessionLife)
	}
	words := uint64(s.obj.size) / mem.WordSize
	n := uint64(4)
	if n > words {
		n = words
	}
	if n > 0 {
		d.m.TouchRun(s.obj.addr, n, trace.Read)
		d.refsStep += n
	}
	d.m.Touch(s.obj.addr, mem.WordSize, trace.Write)
	d.refsStep++
	return nil
}

// malloc allocates one object from the given size distribution,
// charging the malloc cost domain exactly as the program driver does.
// The locality hint is the allocating thread's id, so hint-aware
// allocators can give each logical thread its own arena.
func (d *serverDriver) malloc(t int, dist *rng.Discrete, sizes []uint32, siteBase uint32) (*object, error) {
	idx := dist.Sample(d.sizeRng)
	size := sizes[idx]
	prev := d.meter.Enter(cost.Malloc)
	d.meter.Charge(alloc.CallOverhead)
	var addr uint64
	var err error
	if d.hinter != nil {
		addr, err = d.hinter.MallocLocal(size, uint32(t))
	} else if sa, ok := d.a.(alloc.SiteAllocator); ok {
		addr, err = sa.MallocSite(size, siteBase+uint32(idx))
	} else {
		addr, err = d.a.Malloc(size)
	}
	d.meter.Enter(prev)
	if err != nil {
		return nil, err
	}
	d.stats.Allocs++
	d.stats.ReqBytes += uint64(size)
	d.liveBytes += uint64(size)
	o := &object{addr: addr, size: size, idx: len(d.live)}
	d.live = append(d.live, o)
	return o, nil
}

func (d *serverDriver) free(o *object) error {
	prev := d.meter.Enter(cost.Free)
	d.meter.Charge(alloc.CallOverhead)
	err := d.a.Free(o.addr)
	d.meter.Enter(prev)
	if err != nil {
		return err
	}
	d.stats.Frees++
	d.liveBytes -= uint64(o.size)
	o.dead = true
	last := len(d.live) - 1
	d.live[o.idx] = d.live[last]
	d.live[o.idx].idx = o.idx
	d.live = d.live[:last]
	return nil
}

// initObject writes every word of a fresh object (counted into the
// request's reference budget via refsStep).
func (d *serverDriver) initObject(o *object) {
	words := uint64(o.size) / mem.WordSize
	if words == 0 {
		d.m.Touch(o.addr, o.size, trace.Write)
		d.refsStep++
		return
	}
	d.m.TouchRun(o.addr, words, trace.Write)
	d.refsStep += words
}

// emitRefs spends the accumulated reference budget on the thread's
// locality-shaped mix of stack, global and heap references.
func (d *serverDriver) emitRefs(th *serverThread) {
	scen := d.scen
	for d.refsAcc >= 1 {
		r := d.refRng.Float64()
		switch {
		case r < scen.StackFrac:
			d.stackRef(th)
			d.refsAcc--
			d.refsStep++
		case r < scen.StackFrac+scen.GlobalFrac:
			d.globalRef()
			d.refsAcc--
			d.refsStep++
		default:
			n := d.heapRun(th)
			d.refsAcc -= float64(n)
			d.refsStep += n
		}
	}
}

// stackRef walks the thread's private stack band (never shared).
func (d *serverDriver) stackRef(th *serverThread) {
	delta := int64(d.refRng.Uint64n(129)) - 64
	sp := int64(th.sp) + delta
	if sp < 64 {
		sp = 64
	}
	if sp > 1984 {
		sp = 1984
	}
	th.sp = uint64(sp)
	off := th.sp - d.refRng.Uint64n(16)*mem.WordSize
	kind := trace.Read
	if d.refRng.Bool(0.45) {
		kind = trace.Write
	}
	d.m.Touch(th.stackBase+mem.AlignUp(off, mem.WordSize), mem.WordSize, kind)
}

// globalRef touches the shared Zipf-hot global words; concurrent
// writers make these lines ping-pong identically for every allocator —
// the allocator-independent true-sharing floor.
func (d *serverDriver) globalRef() {
	addr := d.globalHot[d.globalZipf.Sample(d.refRng)]
	kind := trace.Read
	if d.refRng.Bool(0.2) {
		kind = trace.Write
	}
	d.m.Touch(addr, mem.WordSize, kind)
}

// heapRun references a short sequential run inside one live object,
// mostly from the thread's own recency window and otherwise uniformly
// from the whole live set (occasionally another thread's object).
func (d *serverDriver) heapRun(th *serverThread) uint64 {
	o := d.pickObject(th)
	if o == nil {
		d.stackRef(th)
		return 1
	}
	words := uint64(o.size) / mem.WordSize
	if words == 0 {
		d.m.Touch(o.addr, o.size, trace.Read)
		return 1
	}
	start := d.refRng.Uint64n(words)
	run := 1 + d.refRng.Uint64n(maxRunWords)
	if run > words-start {
		run = words - start
	}
	kind := trace.Read
	if d.refRng.Bool(writeProb) {
		kind = trace.Write
	}
	d.m.TouchRun(o.addr+start*mem.WordSize, run, kind)
	th.window[th.wpos] = o
	th.wpos = (th.wpos + 1) % windowSize
	return run
}

func (d *serverDriver) pickObject(th *serverThread) *object {
	if len(d.live) == 0 {
		return nil
	}
	if d.refRng.Bool(windowProb) {
		rank := d.windowZipf.Sample(d.refRng)
		pos := (th.wpos - 1 - rank + 2*windowSize) % windowSize
		if o := th.window[pos]; o != nil && !o.dead {
			return o
		}
	}
	return d.live[d.refRng.Intn(len(d.live))]
}
