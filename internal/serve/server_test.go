package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// smallSpec is a job that completes in well under a second.
func smallSpec() string {
	return `{"program":"make","allocator":"bsd","scale":4096,"caches":[{"size":16384}]}`
}

// bigSpec is a job that, uninterrupted, runs for many seconds — the
// deadline and drain tests rely on having time to act while it runs.
func bigSpec() string {
	return `{"program":"espresso","allocator":"bsd","scale":1,"page_sim":true}`
}

func newTestService(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		// Short budget: tests that leave a long job in flight rely on
		// the forced abort path rather than waiting out the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return doc, resp.StatusCode
}

func getJSON(t *testing.T, url string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding %s (status %d): %v", url, resp.StatusCode, err)
	}
	return doc, resp.StatusCode
}

// waitState polls a job until it reaches any of the given states.
func waitState(t *testing.T, ts *httptest.Server, id string, states ...string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		doc, code := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		for _, s := range states {
			if doc["state"] == s {
				return doc
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %v within 30s", id, states)
	return nil
}

func metric(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		var n uint64
		if _, err := fmt.Sscanf(line, name+" %d", &n); err == nil {
			return n
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestServiceEndToEnd drives the full loop: submit, poll to
// completion, fetch the content-addressed report, then resubmit and
// require a cache hit that skips the simulation.
func TestServiceEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 2})

	doc, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit: no job id in %v", doc)
	}
	done := waitState(t, ts, id, StateDone, StateFailed)
	if done["state"] != StateDone {
		t.Fatalf("job failed: %v", done["error"])
	}

	hash, _ := done["hash"].(string)
	rep, code := getJSON(t, ts.URL+"/v1/reports/"+hash)
	if code != http.StatusOK {
		t.Fatalf("report fetch: status %d", code)
	}
	if rep["kind"] != "mallocsim-run-report" {
		t.Fatalf("report kind = %v", rep["kind"])
	}
	if rep["program"] != "make" || rep["allocator"] != "bsd" {
		t.Fatalf("report identity = %v/%v", rep["program"], rep["allocator"])
	}

	hitsBefore := metric(t, ts, "simd_cache_hits_total")
	dup, code := postJob(t, ts, smallSpec())
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200 (cached)", code)
	}
	if dup["cached"] != true || dup["state"] != StateDone {
		t.Fatalf("resubmit not served from cache: %v", dup)
	}
	if dup["hash"] != hash {
		t.Fatalf("resubmit hash %v != %v", dup["hash"], hash)
	}
	if hits := metric(t, ts, "simd_cache_hits_total"); hits != hitsBefore+1 {
		t.Fatalf("cache hits = %d, want %d", hits, hitsBefore+1)
	}
}

// TestServiceDefaultedSpecSharesHash: a spec relying on defaults and
// one spelling them out are the same experiment, so the second
// submission must hit the first's cached result.
func TestServiceDefaultedSpecSharesHash(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})

	implicit := `{"program":"make","allocator":"bsd","scale":4096,"caches":[{"size":16384}]}`
	explicit := `{"program":"make","allocator":"bsd","scale":4096,"seed":1,"caches":[{"size":16384,"line_size":32,"assoc":1}]}`
	doc, _ := postJob(t, ts, implicit)
	id := doc["id"].(string)
	if d := waitState(t, ts, id, StateDone, StateFailed); d["state"] != StateDone {
		t.Fatalf("job failed: %v", d["error"])
	}
	dup, code := postJob(t, ts, explicit)
	if code != http.StatusOK || dup["cached"] != true {
		t.Fatalf("explicit form missed the cache: status %d, %v", code, dup)
	}
}

// TestServiceWorkerWidthInvariance runs the same jobs on a sequential
// and a wide service and requires identical report digests: the pool
// width is a latency knob, never a results knob.
func TestServiceWorkerWidthInvariance(t *testing.T) {
	specs := []string{
		`{"program":"make","allocator":"bsd","scale":4096,"caches":[{"size":16384}]}`,
		`{"program":"make","allocator":"firstfit","scale":4096,"caches":[{"size":16384}]}`,
		`{"program":"gawk","allocator":"bsd","scale":4096,"caches":[{"size":16384}],"page_sim":true}`,
		`{"program":"gawk","allocator":"gnufit","scale":4096,"caches":[{"size":16384},{"size":65536,"assoc":4}]}`,
	}
	digests := func(workers int) []string {
		_, ts := newTestService(t, Options{Workers: workers})
		ids := make([]string, len(specs))
		for i, s := range specs {
			doc, code := postJob(t, ts, s)
			if code != http.StatusAccepted {
				t.Fatalf("workers=%d submit %d: status %d", workers, i, code)
			}
			ids[i] = doc["id"].(string)
		}
		out := make([]string, len(specs))
		for i, id := range ids {
			doc := waitState(t, ts, id, StateDone, StateFailed)
			if doc["state"] != StateDone {
				t.Fatalf("workers=%d job %d failed: %v", workers, i, doc["error"])
			}
			out[i], _ = doc["report_sha256"].(string)
			if out[i] == "" {
				t.Fatalf("workers=%d job %d: no report digest", workers, i)
			}
		}
		return out
	}
	seq := digests(1)
	par := digests(8)
	for i := range specs {
		if seq[i] != par[i] {
			t.Errorf("spec %d: workers=1 digest %s != workers=8 digest %s", i, seq[i], par[i])
		}
	}
}

// TestServiceJobDeadline arms a per-job deadline on the fake clock,
// fires it while the job is running, and requires the job to fail with
// the deadline cause within a bounded wait.
func TestServiceJobDeadline(t *testing.T) {
	clock := newFakeClock()
	_, ts := newTestService(t, Options{Workers: 1, DefaultTimeout: time.Minute, Clock: clock})

	doc, code := postJob(t, ts, bigSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := doc["id"].(string)
	waitState(t, ts, id, StateRunning, StateDone, StateFailed)
	clock.Advance(2 * time.Minute)
	final := waitState(t, ts, id, StateDone, StateFailed)
	if final["state"] != StateFailed {
		t.Fatalf("job state = %v, want failed (deadline)", final["state"])
	}
	msg, _ := final["error"].(string)
	if !strings.Contains(msg, context.DeadlineExceeded.Error()) {
		t.Fatalf("error %q does not mention the deadline", msg)
	}
}

// TestServiceSpecTimeoutOverride: a spec's timeout_ms beats the server
// default but never changes the job's identity hash.
func TestServiceSpecTimeoutOverride(t *testing.T) {
	base := &JobSpec{Program: "espresso", Allocator: "bsd", Scale: 1, PageSim: true}
	if err := base.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	fast := &JobSpec{Program: "espresso", Allocator: "bsd", Scale: 1, PageSim: true, TimeoutMS: 50}
	if err := fast.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if base.Hash() != fast.Hash() {
		t.Fatal("timeout_ms changed the content hash; it must bound execution only")
	}
	if d := fast.Timeout(time.Minute); d != 50*time.Millisecond {
		t.Fatalf("Timeout = %v, want 50ms", d)
	}
	if d := base.Timeout(time.Minute); d != time.Minute {
		t.Fatalf("Timeout default = %v, want 1m", d)
	}

	clock := newFakeClock()
	_, ts := newTestService(t, Options{Workers: 1, Clock: clock})
	doc, _ := postJob(t, ts, `{"program":"espresso","allocator":"bsd","scale":1,"page_sim":true,"timeout_ms":50}`)
	id := doc["id"].(string)
	waitState(t, ts, id, StateRunning, StateDone, StateFailed)
	clock.Advance(time.Second)
	final := waitState(t, ts, id, StateDone, StateFailed)
	if final["state"] != StateFailed {
		t.Fatalf("job state = %v, want failed", final["state"])
	}
}

// TestServiceDrain: Shutdown refuses new work, finishes accepted work,
// and leaves the finished reports fetchable through the live handler.
func TestServiceDrain(t *testing.T) {
	srv := NewServer(Options{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	doc, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := doc["id"].(string)
	hash := doc["hash"].(string)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The accepted job completed during the drain.
	final, _ := getJSON(t, ts.URL+"/v1/jobs/"+id)
	if final["state"] != StateDone {
		t.Fatalf("drained job state = %v, want done (err %v)", final["state"], final["error"])
	}
	if _, code := getJSON(t, ts.URL+"/v1/reports/"+hash); code != http.StatusOK {
		t.Fatalf("report fetch after drain: status %d", code)
	}

	// New work and liveness are refused.
	if _, code := postJob(t, ts, smallSpec()); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: status %d, want 503", resp.StatusCode)
	}

	// Shutdown is idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestServiceBadRequests: malformed specs are 4xx, never 5xx and never
// a panic.
func TestServiceBadRequests(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", ``},
		{"not-json", `{{{`},
		{"unknown-field", `{"program":"make","allocator":"bsd","frobnicate":1}`},
		{"unknown-program", `{"program":"doom","allocator":"bsd"}`},
		{"unknown-allocator", `{"program":"make","allocator":"hoard"}`},
		{"zero-cache", `{"program":"make","allocator":"bsd","caches":[{"size":0}]}`},
		{"unaligned-cache", `{"program":"make","allocator":"bsd","caches":[{"size":100}]}`},
		{"absurd-cache", `{"program":"make","allocator":"bsd","caches":[{"size":1099511627776}]}`},
		{"bad-assoc", `{"program":"make","allocator":"bsd","caches":[{"size":16384,"assoc":-2}]}`},
		{"bad-line", `{"program":"make","allocator":"bsd","caches":[{"size":16384,"line_size":33}]}`},
		{"sub-word-line", `{"program":"make","allocator":"bsd","caches":[{"size":16384,"line_size":2}]}`},
		{"mixed-line-sizes", mixedLineSpec},
		{"trailing", `{"program":"make","allocator":"bsd"} extra`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc, code := postJob(t, ts, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %v)", code, doc)
			}
			if msg, _ := doc["error"].(string); msg == "" {
				t.Fatal("400 without an error message")
			}
		})
	}
	if _, code := getJSON(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if _, code := getJSON(t, ts.URL+"/v1/reports/deadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown report: status %d, want 404", code)
	}
}

// TestServiceSingleFlight coalesces identical in-flight submissions
// onto one job.
func TestServiceSingleFlight(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	first, _ := postJob(t, ts, bigSpec())
	second, code := postJob(t, ts, bigSpec())
	if code != http.StatusAccepted {
		t.Fatalf("duplicate submit: status %d", code)
	}
	if first["id"] != second["id"] {
		t.Fatalf("in-flight duplicate got a new job: %v vs %v", first["id"], second["id"])
	}
	if n := metric(t, ts, "simd_jobs_deduplicated_total"); n != 1 {
		t.Fatalf("deduplicated = %d, want 1", n)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", []byte("ra"))
	c.Put("b", []byte("rb"))
	if _, ok := c.Get("a"); !ok { // promotes a
		t.Fatal("a missing")
	}
	c.Put("c", []byte("rc")) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("a and c should survive")
	}
	if got, _ := c.Get("a"); !bytes.Equal(got, []byte("ra")) {
		t.Fatalf("a = %q", got)
	}
	hits, misses, evictions := c.Stats()
	if hits != 2 || misses != 1 || evictions != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2/1/1", hits, misses, evictions)
	}
}
