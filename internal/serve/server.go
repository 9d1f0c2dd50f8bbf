// Package serve implements the mallocsim experiment service: an HTTP
// API that accepts (program, allocator, cache/VM config) job
// submissions, runs them on a bounded worker pool with per-job
// deadlines, and serves the versioned JSON run reports produced by the
// observability layer.
//
// Results are content-addressed: a job's identity is the SHA-256 of
// its canonicalized spec plus the report schema version, and finished
// reports live in a bounded LRU cache under that hash. Because every
// simulation is deterministic, resubmitting a spec is answered from
// the cache with byte-identical output, and identical in-flight
// submissions are coalesced into one run (single-flight).
//
// The package is in scope for the determinism analyzer: wall-clock
// reads are confined to the injected Clock (clock.go), job IDs come
// from a counter, and nothing here perturbs the simulation core — a
// report served over HTTP is the same bytes the locality CLI writes.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mallocsim/internal/obs"
	"mallocsim/internal/sim"
	"mallocsim/internal/store"
	"mallocsim/internal/workload"
)

// Job lifecycle states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size (<= 0 means 2).
	// Reports are deterministic, so the pool width affects only
	// latency, never results.
	Workers int
	// QueueDepth bounds the backlog of accepted-but-unstarted jobs
	// (<= 0 means 64); submissions beyond it are refused with 503.
	QueueDepth int
	// CacheEntries bounds the result cache (<= 0 means 128).
	CacheEntries int
	// DefaultTimeout is the per-job deadline when the spec does not
	// set one; 0 means no deadline.
	DefaultTimeout time.Duration
	// Clock supplies timestamps and deadline timers (nil means the
	// wall clock). Tests inject a manual clock here.
	Clock Clock
	// Store is the durable report store the in-memory result cache
	// tiers over (nil means memory-only, the pre-store behavior).
	// Finished reports are written through on job completion; cache
	// misses fall through to the store, so reports survive restarts
	// and LRU eviction.
	Store store.Store
}

// Job is one tracked submission.
type Job struct {
	ID    string
	Spec  *JobSpec
	Hash  string
	State string
	// Cached marks a job answered from the result cache without
	// running.
	Cached bool
	// Err holds the failure message for StateFailed.
	Err string
	// ReportSHA256 is the hex digest of the finished report bytes
	// (distinct from Hash, which addresses the spec).
	ReportSHA256 string

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
}

// Server is the experiment service. Create with NewServer; it
// implements http.Handler.
type Server struct {
	opts  Options
	clock Clock
	cache *ResultCache
	store store.Store
	mux   *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	byHash   map[string]*Job
	nextID   uint64
	queue    chan *Job
	draining bool
	running  int

	submitted obs.Counter
	completed obs.Counter
	failed    obs.Counter
	deduped   obs.Counter

	// Store-tier counters get their own mutex so lookupReport can run
	// both with and without s.mu held.
	storeMu     sync.Mutex
	storeHits   obs.Counter
	storeMisses obs.Counter
	storeErrors obs.Counter

	wg sync.WaitGroup
}

// NewServer creates the service and starts its worker pool. Callers
// must Shutdown to stop the workers.
func NewServer(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	clock := opts.Clock
	if clock == nil {
		clock = RealClock{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		clock:      clock,
		cache:      NewResultCache(opts.CacheEntries),
		store:      opts.Store,
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		byHash:     make(map[string]*Job),
		queue:      make(chan *Job, opts.QueueDepth),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/reports/{hash}", s.handleReport)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/diff/{hashA}/{hashB}", s.handleDiff)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: no new submissions are accepted, every
// accepted job runs to completion, and the worker pool exits. If ctx
// is cancelled before the drain finishes, in-flight simulations are
// aborted through their contexts and Shutdown returns ctx's error
// after the pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// --- handlers ---

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeJobSpec(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err == nil {
		err = spec.Canonicalize()
	}
	if err != nil {
		status := http.StatusInternalServerError
		if IsBadRequest(err) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	hash := spec.Hash()

	// Content-addressed fast path, resolved before taking s.mu: the
	// store tier reads from disk, and no lock may be held across I/O
	// (locksafe). The window between this lookup and the lock admits a
	// concurrent completion of the same hash; the dedup path below then
	// coalesces or re-runs deterministically — a miss here costs work,
	// never correctness.
	report, cached := s.lookupReport(hash)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	// A cached or durably stored result answers the job without running
	// (and counts a cache or store hit on /metrics).
	if cached {
		j := s.byHash[hash]
		if j == nil {
			j = s.newJobLocked(spec, hash)
			now := s.clock.Now()
			j.StartedAt, j.FinishedAt = now, now
		}
		j.State = StateDone
		j.Cached = true
		sum := sha256.Sum256(report)
		j.ReportSHA256 = hex.EncodeToString(sum[:])
		view := jobView(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, view)
		return
	}
	// Single-flight: coalesce identical submissions onto the job that
	// is already queued or running.
	if j := s.byHash[hash]; j != nil && (j.State == StateQueued || j.State == StateRunning) {
		s.deduped.Inc()
		view := jobView(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, view)
		return
	}
	j := s.newJobLocked(spec, hash)
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.ID)
		delete(s.byHash, hash)
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("job queue is full"))
		return
	}
	view := jobView(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}

// newJobLocked registers a job; the caller holds s.mu. IDs come from a
// counter, not the clock, so identical submission sequences produce
// identical IDs.
func (s *Server) newJobLocked(spec *JobSpec, hash string) *Job {
	s.nextID++
	j := &Job{
		ID:          fmt.Sprintf("job-%06d", s.nextID),
		Spec:        spec,
		Hash:        hash,
		State:       StateQueued,
		SubmittedAt: s.clock.Now(),
	}
	s.jobs[j.ID] = j
	s.byHash[hash] = j
	s.submitted.Inc()
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id") // parse the request before taking the lock
	s.mu.Lock()
	j, ok := s.jobs[id]
	var view map[string]any
	if ok {
		view = jobView(j)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	report, ok := s.lookupReport(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no report with hash %q", hash))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(report)
}

// lookupReport resolves a content hash through the tiers: the
// in-memory LRU first, then the durable store. A store hit re-warms
// the memory cache so the next lookup is one map access. Store
// failures (corruption, I/O) count on /metrics and read as a miss —
// the caller re-runs the simulation rather than serving bad bytes.
func (s *Server) lookupReport(hash string) ([]byte, bool) {
	if report, ok := s.cache.Get(hash); ok {
		return report, true
	}
	if s.store == nil {
		return nil, false
	}
	report, err := s.store.Get(hash)
	if err != nil {
		s.storeMu.Lock()
		if errors.Is(err, store.ErrNotFound) {
			s.storeMisses.Inc()
		} else {
			s.storeErrors.Inc()
		}
		s.storeMu.Unlock()
		return nil, false
	}
	s.storeMu.Lock()
	s.storeHits.Inc()
	s.storeMu.Unlock()
	s.cache.Put(hash, report)
	return report, true
}

// persistReport writes a finished report through to the durable store.
// Persistence failures never fail the job — the report is still served
// from memory — but they are counted, so an operator sees a store
// going bad before a restart loses history.
func (s *Server) persistReport(j *Job, report []byte) {
	if s.store == nil {
		return
	}
	err := s.store.Put(j.Hash, report, store.Meta{
		Kind:      "run-report",
		Program:   j.Spec.Program,
		Allocator: j.Spec.Allocator,
		Scale:     j.Spec.Scale,
		Seed:      j.Spec.Seed,
	})
	if err != nil {
		s.storeMu.Lock()
		s.storeErrors.Inc()
		s.storeMu.Unlock()
	}
}

// handleRuns lists the durable store's contents, newest last, filtered
// by the kind, program, allocator and name query parameters.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable,
			errors.New("no durable store configured (start simd with -store)"))
		return
	}
	q := r.URL.Query()
	entries := store.Select(s.store, store.Filter{
		Kind:      q.Get("kind"),
		Name:      q.Get("name"),
		Program:   q.Get("program"),
		Allocator: q.Get("allocator"),
	})
	if entries == nil {
		entries = []store.Entry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(entries),
		"runs":  entries,
	})
}

// handleDiff compares two stored reports field by field. The optional
// threshold query parameter (a relative delta, e.g. 0.01 for 1%) sets
// the significance bar; the default 0 flags any change, which is the
// right bar for a deterministic simulator.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	hashA, hashB := r.PathValue("hashA"), r.PathValue("hashB")
	var opts obs.DiffOptions
	if t := r.URL.Query().Get("threshold"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad threshold %q", t))
			return
		}
		opts.RelThreshold = v
	}
	load := func(hash string) (*obs.Report, error) {
		raw, ok := s.lookupReport(hash)
		if !ok {
			return nil, fmt.Errorf("no report with hash %q", hash)
		}
		var rep obs.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("report %s is not a run report: %v", hash, err)
		}
		return &rep, nil
	}
	repA, err := load(hashA)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	repB, err := load(hashB)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	d := obs.DiffReports(repA, repB, opts)
	d.HashA, d.HashB = hashA, hashB
	writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// --- worker pool ---

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	// Per-job deadline, armed on the injected clock so tests can fire
	// it deterministically. The cause is DeadlineExceeded, so the
	// simulation's error satisfies errors.Is(err,
	// context.DeadlineExceeded) exactly as a context.WithTimeout
	// would — but without an unmockable wall-clock timer. Armed before
	// the job is visible as running, so an observer of that state can
	// rely on the deadline being live.
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	finished := make(chan struct{})
	if d := j.Spec.Timeout(s.opts.DefaultTimeout); d > 0 {
		deadline := s.clock.After(d)
		go func() {
			select {
			case <-deadline:
				cancel(context.DeadlineExceeded)
			case <-finished:
			}
		}()
	}

	s.mu.Lock()
	j.State = StateRunning
	j.StartedAt = s.clock.Now()
	s.running++
	s.mu.Unlock()

	report, reportSHA, err := s.execute(ctx, j.Spec)
	close(finished)
	cancel(nil)

	if err == nil {
		// Write-through to the durable store before the job flips to
		// done, so an observer who sees "done" can rely on the report
		// having been offered to every tier. Disk I/O stays outside
		// s.mu.
		s.persistReport(j, report)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.FinishedAt = s.clock.Now()
	if err != nil {
		j.State = StateFailed
		j.Err = err.Error()
		s.failed.Inc()
		return
	}
	s.cache.Put(j.Hash, report)
	j.State = StateDone
	j.ReportSHA256 = reportSHA
	s.completed.Inc()
}

// execute runs the simulation described by a canonicalized spec and
// returns the encoded report document plus its digest.
func (s *Server) execute(ctx context.Context, spec *JobSpec) ([]byte, string, error) {
	prog, ok := workload.ByName(spec.Program)
	if !ok {
		return nil, "", fmt.Errorf("unknown program %q", spec.Program)
	}
	res, err := sim.RunContext(ctx, sim.Config{
		Program:   prog,
		Allocator: spec.Allocator,
		Scale:     spec.Scale,
		Seed:      spec.Seed,
		Caches:    spec.cacheConfigs(),
		PageSim:   spec.PageSim,
	})
	if err != nil {
		return nil, "", err
	}
	report, err := res.Report().Encode()
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(report)
	return report, hex.EncodeToString(sum[:]), nil
}

// --- response helpers ---

// jobView renders a job as its wire document; the caller holds s.mu.
func jobView(j *Job) map[string]any {
	v := map[string]any{
		"id":           j.ID,
		"state":        j.State,
		"hash":         j.Hash,
		"spec":         j.Spec,
		"submitted_at": j.SubmittedAt,
	}
	if j.Cached {
		v["cached"] = true
	}
	if !j.StartedAt.IsZero() {
		v["started_at"] = j.StartedAt
	}
	if !j.FinishedAt.IsZero() {
		v["finished_at"] = j.FinishedAt
	}
	if j.Err != "" {
		v["error"] = j.Err
	}
	if j.State == StateDone {
		v["report_sha256"] = j.ReportSHA256
		v["report_url"] = "/v1/reports/" + j.Hash
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
