package workload

import (
	"context"
	"fmt"

	"mallocsim/internal/alloc"
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
}

// serverThread is one logical worker's replay state. Its locality hint
// is its id, so a hint-aware allocator can segregate per-thread streams
// into per-thread arenas.
type serverThread struct {
	thread
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
	*app
	scen     ServerConfig
	routeRng *rng.Rand

	reqSizes     sizeDist
	sessionSizes sizeDist
	sessionZipf  *rng.Zipf

	threads  []serverThread
	sessions []serverSession
}

// RunServerContext drives the server scenario against allocator a on
// memory m. Like Run it requires the allocator to be constructed on the
// same memory; references flow to m's sink with the issuing thread
// stamped via SetTid, so a cache.Sharing sink downstream sees
// per-thread streams. The burst loop and every free-queue drain (local
// death queues and the cross-thread inboxes) poll ctx on amortized
// counters, so cancellation latency stays bounded without perturbing
// completed runs. It is RunServerBundle with one lane.
func RunServerContext(ctx context.Context, m *mem.Memory, a alloc.Allocator, cfg ServerRunConfig) (Stats, error) {
	stats, errs := RunServerBundle(ctx, []Lane{{Mem: m, Alloc: a}}, cfg)
	return stats[0], errs[0]
}

// RunServerBundle drives the server scenario once for a bundle of
// lanes, as RunBundle drives a program.
func RunServerBundle(ctx context.Context, lanes []Lane, cfg ServerRunConfig) ([]Stats, []error) {
	scen := cfg.Scenario
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if scen.Threads < 2 || scen.Threads > 63 {
		err := fmt.Errorf("workload: server scenario %q needs 2..63 threads, got %d", scen.Name, scen.Threads)
		errs := make([]error, len(lanes))
		for i := range errs {
			errs[i] = err
		}
		return make([]Stats, len(lanes)), errs
	}
	ap, root := newApp(lanes, scen.Name, cfg.Seed, scen.StackFrac, scen.GlobalFrac)
	d := &serverDriver{app: ap, scen: scen, routeRng: root.Split()}
	return ap.results(d.run(ctx, cfg.Scale))
}

// run replays the scenario at the given scale. Its error ends every
// lane still running.
func (d *serverDriver) run(ctx context.Context, scale uint64) error {
	scen := d.scen
	d.reqSizes = newSizeDist(scen.ReqSizes, reqSiteBase)
	d.sessionSizes = newSizeDist(scen.SessionSizes, sessionSiteBase)
	d.sessionZipf = rng.NewZipf(scen.Sessions, 1.05)

	// Per-thread stack segments plus one shared global segment; all are
	// excluded from heap metrics by the simulation driver (they belong
	// to the application, not the allocator).
	d.threads = make([]serverThread, scen.Threads)
	for t := range d.threads {
		if ctx.Err() != nil {
			return fmt.Errorf("server %s: aborted during setup: %w", scen.Name, context.Cause(ctx))
		}
		d.threads[t].thread = d.newThread(fmt.Sprintf("%s-stack%d", scen.Name, t), uint8(t))
	}
	d.newGlobals(scen.GlobalBytes)
	if d.done() {
		return nil
	}

	nReqs := scen.Requests / scale
	if nReqs == 0 {
		nReqs = 1
	}

	// Prime the session table: long-lived state allocated round-robin,
	// so initial ownership is spread across the threads.
	var pos uint64 // the session, request or thread a failing lane names
	d.where = func(err error) error { return fmt.Errorf("server %s: priming session %d: %w", scen.Name, pos, err) }
	d.sessions = make([]serverSession, scen.Sessions)
	for i := range d.sessions {
		if i%cancelCheckEvery == 0 && ctx.Err() != nil {
			return fmt.Errorf("server %s: aborted priming sessions: %w", scen.Name, context.Cause(ctx))
		}
		pos = uint64(i)
		t := i % scen.Threads
		d.setTid(uint8(t))
		obj := d.malloc(d.sessionSizes, uint32(t))
		if d.done() {
			return nil
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
	d.where = func(err error) error { return fmt.Errorf("server %s request %d: %w", scen.Name, pos, err) }
	for req < nReqs {
		bursts++
		if bursts%cancelCheckEvery == 0 && ctx.Err() != nil {
			return fmt.Errorf("server %s: aborted at request %d/%d: %w",
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
		// threads' allocation streams at the allocator. A failed
		// arrival names the burst's first request.
		pos = req
		burstObjs = burstObjs[:0]
		for i, t := range burst {
			if i%cancelCheckEvery == 0 && ctx.Err() != nil {
				return fmt.Errorf("server %s: aborted at request %d/%d: %w",
					scen.Name, req, nReqs, context.Cause(ctx))
			}
			burstObjs = append(burstObjs, d.arrive(t))
			if d.done() {
				return nil
			}
		}
		// Phase 2 — processing: drain queues, touch the session, spend
		// the reference budget, then retire the request state.
		for i, t := range burst {
			pos = req + uint64(i)
			if err := d.process(ctx, t, pos, burstObjs[i], refsPerReq, instrPerReq); err != nil {
				return d.where(err)
			}
			if d.done() {
				return nil
			}
		}
		req += n
	}

	// Retire every parked handoff so the cross-thread queues end empty.
	d.where = func(err error) error {
		return fmt.Errorf("server %s: draining thread %d inbox: %w", scen.Name, pos, err)
	}
	for t := range d.threads {
		pos = uint64(t)
		d.setTid(d.threads[t].id)
		if err := d.drainInbox(ctx, &d.threads[t]); err != nil {
			return d.where(err)
		}
	}
	return nil
}

// arrive allocates, initializes and promotes one request object on
// thread t.
func (d *serverDriver) arrive(t int) *object {
	d.setTid(uint8(t))
	obj := d.malloc(d.reqSizes, uint32(t))
	d.refsStep = 0
	d.initObject(obj)
	// The init words count against the request's reference budget,
	// which process() tops up.
	d.refsAcc -= float64(d.refsStep)
	d.threads[t].promote(obj)
	return obj
}

// process handles one request on thread t: drain the thread's free
// queues, do the session work, spend the reference budget, and either
// hand the request object to a consumer or schedule its local death.
// Its error is a cancelled context.
func (d *serverDriver) process(ctx context.Context, t int, reqIdx uint64, obj *object, refsPerReq, instrPerReq float64) error {
	d.setTid(uint8(t))
	th := &d.threads[t]
	d.refsStep = 0

	// Local deaths due at this request happen first (the recycling
	// opportunity), then the cross-thread inbox.
	if err := d.freeDue(ctx, &th.deaths, reqIdx); err != nil {
		return err
	}
	if err := d.drainInbox(ctx, th); err != nil {
		return err
	}
	d.touchSession(th, reqIdx)
	d.spend(&th.thread, refsPerReq, instrPerReq)

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
// frees it cross-thread.
func (d *serverDriver) drainInbox(ctx context.Context, th *serverThread) error {
	for len(th.inbox) > 0 {
		if d.drainCanceled(ctx) {
			return context.Cause(ctx)
		}
		o := th.inbox[len(th.inbox)-1]
		th.inbox = th.inbox[:len(th.inbox)-1]
		words := uint64(o.size) / mem.WordSize
		if words == 0 {
			d.mirror(o.slot, 0, o.size, trace.Read)
			d.m.Touch(o.addr, o.size, trace.Read)
			d.refsStep++
		} else {
			if words > maxRunWords {
				words = maxRunWords
			}
			d.mirrorRun(o.slot, 0, words, trace.Read)
			d.m.TouchRun(o.addr, words, trace.Read)
			d.refsStep += words
		}
		d.free(o)
		d.stats.Handoffs++
	}
	return nil
}

// touchSession does the request's session work: read the Zipf-chosen
// session's header (words every handling thread reads — true sharing),
// bump its counter word, and renew it when it has expired (freeing the
// old state, often across threads, and becoming the new owner).
func (d *serverDriver) touchSession(th *serverThread, reqIdx uint64) {
	i := d.sessionZipf.Sample(d.refRng)
	s := &d.sessions[i]
	if reqIdx >= s.dies {
		d.free(s.obj)
		obj := d.malloc(d.sessionSizes, uint32(th.id))
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
		d.mirrorRun(s.obj.slot, 0, n, trace.Read)
		d.m.TouchRun(s.obj.addr, n, trace.Read)
		d.refsStep += n
	}
	d.mirror(s.obj.slot, 0, mem.WordSize, trace.Write)
	d.m.Touch(s.obj.addr, mem.WordSize, trace.Write)
	d.refsStep++
}
