package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mallocsim/internal/alloc/all"
	"mallocsim/internal/serve"
	"mallocsim/internal/store"
)

// The simd-jobs traffic. The spec universe is the ext-seeds matrix of
// EXPERIMENTS.md (GS-Small × the paper's five allocators × five workload
// seeds, reported at 16 K), each spec submitted as the "Serving
// experiments" recipe there submits its pair: scale 64 and one 16 K
// direct-mapped cache. Benchmark seed s takes workload seeds
// 5s+1 … 5s+5, so seed 0 is ext-seeds itself. The service runs with its
// shipped options, the 128-report result cache included.
//
// The load is one closed-loop client, and a measuring process runs on
// simdProcs scheduler threads (GOMAXPROCS). With nproc clients, or with
// the client and the service spread over nproc threads, a hit's latency
// was mostly the time the host took to wake a thread: its 90th
// percentile moved by a third from run to run. On one thread a request
// and its handler hand over without a wake-up, so the tail measures
// serve and store. One client runs one job at a time, so a hit never
// waits behind a simulation. At the paper's default scale, 16, a pass
// took 3 s, and a run's nine or so measuring processes were too few for
// their medians to ride out the host; at scale 64 a pass takes under
// one second.
//
// Three choices are assumptions; nothing in the repository fixes them:
//   - popularity is Zipf-like over a seeded ranking of the universe,
//     with exponent simdZipf inside the 0.64–0.83 range Breslau et al.
//     ("Web Caching and Zipf-like Distributions", INFOCOM 1999) measured
//     for web requests. A pass requests the spec of rank r
//     max(1, round(simdJobs·p(r))) times in a seeded order, so every pass
//     and every seed has the same mix;
//   - before the service starts, its store already holds half of the
//     universe: the specs of every other popularity rank, starting with
//     the second, so stored and unstored specs span the same popularity;
//   - the client polls every simdPoll, short next to a simulation, so
//     that latency resolves the run rather than the poll period (on one
//     thread a poll due during a simulation mostly runs once it ends).
const (
	simdProgram = "gs-small"
	simdSeeds   = 5
	simdJobs    = 100
	simdZipf    = 0.8
	simdPoll    = 5 * time.Millisecond
	simdProcs   = 1
	simdScale   = 64
	simdCache   = 16 << 10
)

// simdUniverse is the number of distinct specs.
var simdUniverse = simdSeeds * len(all.Paper)

// stored reports whether the spec of popularity rank r is in the store
// before the service starts.
func stored(r int) bool { return r%2 == 1 }

// simdBench drives an in-process simd service over a DiskStore from one
// closed-loop HTTP client.
type simdBench struct {
	workers int
	work    string
	tally   *tally
	specs   []serve.JobSpec // the universe, most popular first
	seq     []int           // each pass's jobs, as popularity ranks
	prep    string          // store holding the pre-stored specs
	client  *http.Client
	reports map[string]string // spec hash → report sha256 seen first

	runLat sample // ms, jobs that ran a simulation
	hitLat sample // ms, jobs answered from the result cache or the store
	// Traced passes.
	log          *spanLog
	openS        sample // s per store.Open
	tracedWalls  sample // s
	untracedS    sample // s, untraced passes of a traced run
	jobs, hits   int
	polls        int
	refused      int
	runtimeDelta runtimeStats
}

func newSimdBench(seed uint64, workers int, work string, t *tally) *simdBench {
	s := &simdBench{
		workers: workers,
		work:    work,
		tally:   t,
		reports: map[string]string{},
		log:     &spanLog{},
		client:  &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	rnd := rand.New(rand.NewPCG(seed, 0x5eed))
	for k := uint64(0); k < simdSeeds; k++ {
		for _, a := range all.Paper {
			s.specs = append(s.specs, serve.JobSpec{
				Program: simdProgram, Allocator: a, Seed: simdSeeds*seed + 1 + k,
				Scale: simdScale, Caches: []serve.CacheSpec{{Size: simdCache}},
			})
		}
	}
	rnd.Shuffle(len(s.specs), func(i, j int) { s.specs[i], s.specs[j] = s.specs[j], s.specs[i] })
	var norm float64
	for r := range s.specs {
		norm += math.Pow(float64(r+1), -simdZipf)
	}
	for r := range s.specs {
		n := int(math.Max(1, math.Round(simdJobs*math.Pow(float64(r+1), -simdZipf)/norm)))
		for ; n > 0; n-- {
			s.seq = append(s.seq, r)
		}
	}
	rnd.Shuffle(len(s.seq), func(i, j int) { s.seq[i], s.seq[j] = s.seq[j], s.seq[i] })
	return s
}

// service is a serve.Server behind a loopback listener.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startService starts the service over st and waits for its first
// healthy /healthz.
func startService(st store.Store, workers int, client *http.Client) (*service, error) {
	srv := serve.NewServer(serve.Options{Workers: workers, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // no jobs were accepted
		return nil, err
	}
	svc := &service{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { svc.done <- svc.hs.Serve(ln) }()
	resp, err := client.Get(svc.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = svc.stop() // the health failure is the error to report
		return nil, err
	}
	return svc, nil
}

// stop closes the listener, waits for open requests and for the
// service's workers to finish.
func (svc *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := svc.hs.Shutdown(ctx)
	if serr := <-svc.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := svc.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// prepare runs the specs that are stored before the service starts
// through a service over a fresh store. Untimed.
func (s *simdBench) prepare(ctx context.Context) error {
	s.prep = filepath.Join(s.work, "prep-store")
	if err := os.RemoveAll(s.prep); err != nil {
		return err
	}
	st, err := store.Open(s.prep, store.Options{})
	if err != nil {
		return err
	}
	svc, err := startService(st, s.workers, s.client)
	if err != nil {
		return err
	}
	want := 0
	for r := range s.specs {
		if !stored(r) {
			continue
		}
		want++
		if j := s.job(ctx, svc.url, s.specs[r], nil); j.err != nil {
			_ = svc.stop() // the job error is the one to report
			return fmt.Errorf("pre-storing spec %d: %w", r, j.err)
		}
	}
	if err := svc.stop(); err != nil {
		return err
	}
	if st.Len() != want {
		return fmt.Errorf("prepared store holds %d reports, want %d", st.Len(), want)
	}
	return nil
}

// copyPrepared copies the prepared store into a new directory under
// the scratch directory and returns it.
func (s *simdBench) copyPrepared() (string, error) {
	dir, err := os.MkdirTemp(s.work, "store-")
	if err != nil {
		return "", err
	}
	if err := copyTree(s.prep, dir); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// jobResult is what one client saw of one job.
type jobResult struct {
	err       error
	status    int // HTTP status of the failing call, if any
	id        string
	hash      string
	reportSHA string // digest of the report bytes received
	cached    bool
	latency   time.Duration // submit until the report is received
	polls     int
	refs      uint64 // simulated references, for jobs that ran
}

// jobDoc is the part of the service's job document the client reads.
type jobDoc struct {
	ID           string    `json:"id"`
	State        string    `json:"state"`
	Hash         string    `json:"hash"`
	ReportSHA256 string    `json:"report_sha256"`
	Error        string    `json:"error"`
	SubmittedAt  time.Time `json:"submitted_at"`
	StartedAt    time.Time `json:"started_at"`
	FinishedAt   time.Time `json:"finished_at"`
}

// job runs one spec through the service: submit, poll the job document
// at a fixed interval until it is done, then fetch the report. With a
// span log it records the client's calls and the job's phase stamps.
func (s *simdBench) job(ctx context.Context, url string, spec serve.JobSpec, log *spanLog) jobResult {
	var res jobResult
	type call struct {
		name       string
		start, end int64
	}
	var calls []call
	do := func(name, method, u string, body []byte) ([]byte, error) {
		start := now()
		out, status, err := s.call(ctx, method, u, body)
		calls = append(calls, call{name, start, now()})
		if err == nil && (status < 200 || status > 299) {
			res.status = status
			err = fmt.Errorf("%s %s: status %d: %s", method, u, status, bytes.TrimSpace(out))
		}
		return out, err
	}

	body, err := json.Marshal(spec)
	if err != nil {
		res.err = err
		return res
	}
	t0 := now()
	var doc jobDoc
	raw, err := do("http.submit", http.MethodPost, url+"/v1/jobs", body)
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	// A job is a hit when the submit response already carries the
	// report. The document's cached flag is not used: the service sets
	// it on a running job whose report a concurrent submit found in the
	// store before the job was marked done.
	res.cached = err == nil && doc.State == serve.StateDone
	for err == nil && doc.State != serve.StateDone && doc.State != serve.StateFailed {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			continue
		case <-time.After(simdPoll):
		}
		res.polls++
		if raw, err = do("http.poll", http.MethodGet, url+"/v1/jobs/"+doc.ID, nil); err == nil {
			err = json.Unmarshal(raw, &doc)
		}
	}
	if err == nil && doc.State == serve.StateFailed {
		err = fmt.Errorf("job %s failed: %s", doc.ID, doc.Error)
	}
	var report []byte
	if err == nil {
		report, err = do("http.report", http.MethodGet, url+"/v1/reports/"+doc.Hash, nil)
	}
	t1 := now()
	res.latency = time.Duration(t1 - t0)
	res.id, res.hash = doc.ID, doc.Hash
	if err == nil {
		sum := sha256.Sum256(report)
		res.reportSHA = hex.EncodeToString(sum[:])
		if res.reportSHA != doc.ReportSHA256 {
			err = fmt.Errorf("job %s: report sha256 %s, job document says %s", doc.ID, res.reportSHA, doc.ReportSHA256)
		}
	}
	if err == nil && !res.cached {
		var rep struct {
			Refs struct{ Reads, Writes uint64 }
		}
		if err = json.Unmarshal(report, &rep); err == nil {
			res.refs = rep.Refs.Reads + rep.Refs.Writes
		}
	}
	res.err = err
	if log != nil {
		jobID := log.add("job", doc.ID, -1, t0, t1)
		for _, c := range calls {
			log.add(c.name, doc.ID, jobID, c.start, c.end)
		}
		if err == nil && !res.cached {
			log.add("serve.queue", doc.ID, jobID, stamp(doc.SubmittedAt), stamp(doc.StartedAt))
			log.add("serve.run", doc.ID, jobID, stamp(doc.StartedAt), stamp(doc.FinishedAt))
		}
	}
	return res
}

// stamp converts a job document time to span time.
func stamp(t time.Time) int64 { return int64(t.Sub(epoch)) }

func (s *simdBench) call(ctx context.Context, method, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// pass runs the job sequence once against a service over the store in
// dir, one job after another, calling ready once the service answers.
// It returns the pass's wall time, set-up excluded.
func (s *simdBench) pass(ctx context.Context, dir string, traced bool, ready func()) (time.Duration, []jobResult, error) {
	openStart := time.Now()
	ds, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, nil, err
	}
	s.openS = append(s.openS, time.Since(openStart).Seconds())
	var st store.Store = ds
	var log *spanLog
	if traced {
		st, log = storeTap{inner: ds, log: s.log}, s.log
	}
	svc, err := startService(st, s.workers, s.client)
	if err != nil {
		return 0, nil, err
	}
	ready()

	results := make([]jobResult, len(s.seq))
	start := time.Now()
	for i, r := range s.seq {
		results[i] = s.job(ctx, svc.url, s.specs[r], log)
	}
	wall := time.Since(start)
	if err := svc.stop(); err != nil {
		return 0, nil, err
	}
	s.client.CloseIdleConnections()
	return wall, results, nil
}

// record tallies a pass's jobs and checks every report: it must hash to
// its job's report_sha256 and be the same bytes on every repeat of its
// spec. It returns the simulated references of the pass.
func (s *simdBench) record(results []jobResult) uint64 {
	var refs uint64
	for _, j := range results {
		s.jobs++
		s.polls += j.polls
		if j.status == http.StatusServiceUnavailable {
			s.refused++
		}
		if j.err != nil {
			s.tally.fail("job %s: %v", j.id, j.err)
			continue
		}
		if first, ok := s.reports[j.hash]; !ok {
			s.reports[j.hash] = j.reportSHA
		} else if first != j.reportSHA {
			s.tally.fail("job %s: report of spec %s changed between repeats", j.id, j.hash)
			continue
		}
		s.tally.ok()
		if j.cached {
			s.hits++
			s.hitLat = append(s.hitLat, ms(j.latency))
			continue
		}
		s.runLat = append(s.runLat, ms(j.latency))
		refs += j.refs
	}
	return refs
}

// measurePass is one measuring process's work: one untraced pass over
// the store in dir.
func (s *simdBench) measurePass(ctx context.Context, dir string, ready func()) (passReport, error) {
	wall, results, err := s.pass(ctx, dir, false, ready)
	if err != nil {
		return passReport{}, err
	}
	refs := s.record(results)
	return passReport{
		WallS:    wall.Seconds(),
		MrefPerS: float64(refs) / wall.Seconds() / 1e6,
		OpsPerS:  float64(len(results)) / wall.Seconds(),
		RunMs:    s.runLat,
		HitMs:    s.hitLat,
		Outputs:  s.reports,
	}, nil
}

// passOnCopy runs one pass over a fresh copy of the prepared store.
func (s *simdBench) passOnCopy(ctx context.Context, traced bool) (time.Duration, []jobResult, error) {
	dir, err := s.copyPrepared()
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	return s.pass(ctx, dir, traced, func() {})
}

// measureTraced alternates untraced and traced passes until the run
// has lasted its seconds.
func (s *simdBench) measureTraced(ctx context.Context, seconds time.Duration) error {
	start := time.Now()
	for time.Since(start) < seconds || len(s.tracedWalls) < 2 {
		before := readRuntime()
		wall, results, err := s.passOnCopy(ctx, false)
		if err != nil {
			return err
		}
		s.runtimeDelta.add(readRuntime().sub(before))
		s.untracedS = append(s.untracedS, wall.Seconds())
		s.record(results)

		wall, results, err = s.passOnCopy(ctx, true)
		if err != nil {
			return err
		}
		s.tracedWalls = append(s.tracedWalls, wall.Seconds())
		s.record(results)
	}
	return nil
}

func (s *simdBench) layerMetrics() map[string]float64 {
	gets := s.log.durations("store.get.hit", "store.get.miss", "store.get.error")
	m := map[string]float64{
		"serve.submit_p50_ms":     s.log.durations("http.submit").median(),
		"serve.queue_wait_p50_ms": s.log.durations("serve.queue").median(),
		"serve.run_p50_ms":        s.log.durations("serve.run").median(),
		"serve.polls_per_job":     ratio(float64(s.polls), float64(s.jobs)),
		"serve.cache_hit_frac":    ratio(float64(s.hits), float64(s.jobs)),
		"serve.refused":           float64(s.refused),
		"store.open_s":            s.openS.median(),
		"store.get_p50_ms":        gets.median(),
		"store.put_p50_ms":        s.log.durations("store.put").median(),
		"store.hit_frac":          ratio(float64(s.log.count("store.get.hit")), float64(len(gets))),
		"tracing.overhead_frac":   s.tracedWalls.median()/s.untracedS.median() - 1,
	}
	for k, v := range s.runtimeDelta.metrics(len(s.untracedS)) {
		m[k] = v
	}
	return m
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
