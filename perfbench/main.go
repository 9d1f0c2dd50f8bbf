// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a given number of seconds and prints, as its last
// line, a JSON object with the run's verdict and metrics:
//
//	perfbench --workload paper-churn --seed 3 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it runs traced passes next to untraced ones and
// reports the per-layer metrics. Every invocation also replays the
// batch workloads' experiments at paper.GoldenScale against the
// committed goldens. It is run from the root of the source tree (see
// run.py, which builds it first); README.md defines every metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"mallocsim/internal/paper"
)

// runLimit bounds one invocation's measuring, leaving room for the
// golden replay within the three minutes a run may take.
const runLimit = 150 * time.Second

// endToEnd and perLayer name every metric and its unit, in report
// order. A per-layer metric of a layer the workload does not run
// reads 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_mrefs_per_s", "Mref/s"},
	{"jobs_per_s", "1/s"},
	{"run_p50_ms", "ms"},
	{"run_tail_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"workload.self_s", "s"},
	{"workload.ns_per_ref", "ns/ref"},
	{"alloc.self_s", "s"},
	{"alloc.ns_per_op", "ns/op"},
	{"alloc.ops", "count"},
	{"alloc.scan_steps_per_op", "steps/op"},
	{"mem.flushes", "count"},
	{"mem.refs_per_row", "ref/row"},
	{"mem.pages_touched", "count"},
	{"trace.counter_ns_per_ref", "ns/ref"},
	{"cache.group_s", "s"},
	{"cache.group_ns_per_ref", "ns/ref"},
	{"cache.distinct_lines", "count"},
	{"cache.sharing_s", "s"},
	{"cache.sharing_ns_per_ref", "ns/ref"},
	{"cache.sharing_events", "count"},
	{"vm.stack_s", "s"},
	{"vm.stack_ns_per_ref", "ns/ref"},
	{"vm.distinct_pages", "count"},
	{"sim.setup_s", "s"},
	{"sim.glue_s", "s"},
	{"paper.pair_p50_s", "s"},
	{"paper.pair_max_s", "s"},
	{"paper.pool_idle_frac", "frac"},
	{"paper.assembly_s", "s"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.polls_per_job", "polls/job"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.refused", "count"},
	{"store.open_s", "s"},
	{"store.get_p50_ms", "ms"},
	{"store.put_p50_ms", "ms"},
	{"store.hit_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"tracing.overhead_frac", "frac"},
}

type metricDef struct{ name, unit string }

// tally counts operations (pairs, jobs, tables) and the ones that
// failed.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-churn, paper-paging, server-sharing or simd-jobs")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 25, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	work := fs.String("work", ".bench_build/perfbench-work", "directory for scratch files and the span log")
	golden := fs.String("golden", "internal/paper/testdata/golden", "directory of the golden tables")
	pass := fs.Bool("pass", false, "run one measuring pass: print \"ready\" once set up, then the pass's report (how a run measures)")
	storeDir := fs.String("store", "", "with -pass, the copy of the prepared store simd-jobs opens")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	workers := runtime.NumCPU()
	if *pass {
		return onePass(w, *seed, workers, *work, *storeDir)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if st, err := os.Stat(*golden); err != nil || !st.IsDir() {
		return fmt.Errorf("golden tables not found at %s (run from the source tree's root)", *golden)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	t := &tally{}
	fmt.Printf("workload %s, seed %d, %d workers, %d s, trace %d\n", w.name, *seed, workers, *seconds, *traced)
	var sb *simdBench
	if w.exps == nil {
		sb = newSimdBench(*seed, workers, dir, t)
		fmt.Printf("closed loop: 1 client against %d service workers on %d scheduler thread, %d jobs a pass over %d %s specs at scale %d with one %d K cache; half pre-stored\n",
			workers, simdProcs, len(sb.seq), simdUniverse, simdProgram, simdScale, simdCache>>10)
		if err := sb.prepare(ctx); err != nil {
			return fmt.Errorf("preparing the store: %w", err)
		}
	} else {
		fmt.Printf("batch: experiments %s at scale %d on %d workers, Runner seeds %d to %d\n",
			strings.Join(w.exps, ","), batchScale, workers, runnerSeed(*seed, 0), runnerSeed(*seed, batchSeeds-1))
	}

	var vals map[string]float64
	defs := endToEnd
	if *traced == 0 {
		vals, err = measureEndToEnd(w, *seed, dir, sb, dur, t)
	} else {
		defs = perLayer
		vals, err = measureLayers(ctx, w, *seed, workers, sb, dur, spanPath(*work, w.name, *seed), t)
	}
	if err != nil {
		return err
	}

	if err := goldenCheck(ctx, *golden, workers, t); err != nil {
		t.fail("golden replay: %v", err)
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "failed:", n)
	}
	fmt.Printf("failed_frac = %g (%d of %d operations)\n", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	v := verdict{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		x := vals[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", d.name, x)
		}
		v.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
		fmt.Printf("%-26s %14.6g %s\n", d.name, x, d.unit)
	}
	out, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measureEndToEnd starts one measuring process after another, each
// running one pass in a fresh heap, until the run has lasted its seconds
// and both tails have enough samples beyond them. A batch workload's
// processes take turns over its Runner seeds (see runnerSeed). A metric
// of a process is reported as the mean over the seeds of its median (for
// peak memory, its mean) over each seed's processes; a tail pools the
// samples of every process. sb
// is the simd-jobs bench with its prepared store, nil for a batch
// workload.
func measureEndToEnd(w workloadDef, seed uint64, dir string, sb *simdBench, dur time.Duration, t *tally) (map[string]float64, error) {
	deadline := time.Now().Add(runLimit)
	turns := 1
	if sb == nil {
		turns = batchSeeds
	}
	bySeed := map[string][]sample{} // metric → its values, one sample per turn
	add := func(k int, name string, v float64) {
		if bySeed[name] == nil {
			bySeed[name] = make([]sample, turns)
		}
		bySeed[name][k] = append(bySeed[name][k], v)
	}
	var runMs, hitMs sample
	outputs := map[string]string{}
	start := time.Now()
	procs := 0
	for ; ; procs++ {
		k, s := procs%turns, seed
		if sb == nil {
			s = runnerSeed(seed, k)
		}
		rep, ready, peak, err := measuringProcess(w, s, dir, sb)
		if err != nil {
			return nil, err
		}
		add(k, "setup_s", ready)
		add(k, "wall_s", rep.WallS)
		add(k, "sim_mrefs_per_s", rep.MrefPerS)
		add(k, "jobs_per_s", rep.OpsPerS)
		add(k, "peak_rss_mb", peak)
		if len(rep.RunMs) > 0 {
			add(k, "run_p50_ms", rep.RunMs.median())
		}
		if len(rep.HitMs) > 0 {
			add(k, "hit_p50_ms", rep.HitMs.median())
		}
		runMs, hitMs = append(runMs, rep.RunMs...), append(hitMs, rep.HitMs...)
		t.attempted += rep.Attempted
		t.failed += rep.Failed
		t.notes = append(t.notes, rep.Notes...)
		for key, v := range rep.Outputs {
			key = fmt.Sprintf("seed %d %s", s, key)
			if first, ok := outputs[key]; !ok {
				outputs[key] = v
			} else if v != first {
				t.fail("%s: outputs differ between measuring processes", key)
			}
		}
		if runMs.supports(tail) && hitMs.supports(tail) && time.Since(start) >= dur {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("deadline passed with %d run and %d hit samples", len(runMs), len(hitMs))
		}
	}
	fmt.Printf("%d measuring processes over %d seeds\n", procs+1, turns)
	vals := map[string]float64{}
	for name, per := range bySeed {
		stat := sample.median
		if name == "peak_rss_mb" {
			// A server-sharing process peaks near one of two heap sizes
			// (about 93 or 107 MB), depending on when the collector runs;
			// a median jumps between them as the share of each shifts.
			stat = sample.mean
		}
		var sum float64
		n := 0
		for _, s := range per {
			if len(s) > 0 {
				sum += stat(s)
				n++
			}
		}
		vals[name] = sum / float64(n)
	}
	for _, c := range []struct {
		class string
		s     sample
	}{{"run", runMs}, {"hit", hitMs}} {
		class, s := c.class, c.s
		v, beyond, err := s.percentile(tail)
		if err != nil {
			return nil, fmt.Errorf("%s_tail_ms: %w", class, err)
		}
		vals[class+"_tail_ms"] = v
		fmt.Printf("%s_tail_ms is p%d of %d samples (%d beyond)\n", class, tail, len(s), beyond)
	}
	return vals, nil
}

// measureLayers runs the traced run in this process and returns the
// per-layer metrics, writing the spans to spanFile.
func measureLayers(ctx context.Context, w workloadDef, seed uint64, workers int, sb *simdBench, dur time.Duration, spanFile string, t *tally) (map[string]float64, error) {
	if sb != nil {
		// As in the measuring processes; the golden replay after this
		// runs on every thread again.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(simdProcs))
		if err := sb.measureTraced(ctx, dur); err != nil {
			return nil, err
		}
		header := map[string]any{"workload": w.name, "seed": seed}
		return sb.layerMetrics(), writeSpans(spanFile, header, [][]span{sb.log.spans}, nil)
	}
	bb := &batchBench{w: w, seed: runnerSeed(seed, 0), workers: workers, tally: t, digests: map[string]string{}}
	bb.measureTraced(ctx, dur)
	bb.printReconciliation()
	bb.printExperimentCosts()
	var groups [][]span
	var aggs []aggregate
	for _, pass := range bb.traced {
		for _, tp := range pass {
			groups = append(groups, tp.tr.spans)
			aggs = append(aggs, tp.tr.aggregates()...)
		}
	}
	header := map[string]any{"workload": w.name, "seed": seed, "runner_seed": bb.seed, "scale": batchScale, "passes": len(bb.traced)}
	return bb.layerMetrics(), writeSpans(spanFile, header, groups, aggs)
}

func spanPath(work, name string, seed uint64) string {
	return filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
}

// passReport is what one measuring process reports about its pass.
type passReport struct {
	WallS    float64 `json:"wall_s"`
	MrefPerS float64 `json:"mref_per_s"`
	OpsPerS  float64 `json:"ops_per_s"`
	RunMs    sample  `json:"run_ms"`
	HitMs    sample  `json:"hit_ms"`
	// Outputs maps each pair to the digest of its outputs, or each simd
	// spec hash to its report's sha256; every process must agree.
	Outputs   map[string]string `json:"outputs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Notes     []string          `json:"notes"`
}

// onePass is a measuring process: it sets the workload up, prints
// "ready", runs one pass and prints its report. A batch workload is set
// up once it has built its Runner and pair list; the simd service once
// it has opened the store in storeDir (loading its index), started, and
// answered its first /healthz.
func onePass(w workloadDef, seed uint64, workers int, work, storeDir string) error {
	ctx := context.Background()
	t := &tally{}
	ready := func() { fmt.Println("ready") }
	var rep passReport
	if w.exps != nil {
		b := &batchBench{w: w, seed: seed, workers: workers, tally: t, digests: map[string]string{}}
		rep = b.measurePass(ctx, ready)
	} else {
		if storeDir == "" {
			return errors.New("a simd-jobs pass needs --store")
		}
		s := newSimdBench(seed, workers, work, t)
		var err error
		if rep, err = s.measurePass(ctx, storeDir, ready); err != nil {
			return err
		}
	}
	rep.Attempted, rep.Failed, rep.Notes = t.attempted, t.failed, t.notes
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// measuringProcess runs one measuring process and returns its report,
// its set-up time and its peak resident memory in MB. Set-up is timed
// from just before the process starts until it prints "ready". For
// simd-jobs the prepared store is copied first, untimed, and the copy
// removed afterwards.
func measuringProcess(w workloadDef, seed uint64, work string, sb *simdBench) (passReport, float64, float64, error) {
	var rep passReport
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, 0, err
	}
	args := []string{"--pass", "--workload", w.name, "--seed", fmt.Sprint(seed), "--work", work}
	if sb != nil {
		dir, err := sb.copyPrepared()
		if err != nil {
			return rep, 0, 0, err
		}
		defer os.RemoveAll(dir)
		args = append(args, "--store", dir)
	}
	cmd := exec.Command(exe, args...)
	if sb != nil {
		cmd.Env = append(os.Environ(), fmt.Sprint("GOMAXPROCS=", simdProcs))
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep, 0, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, 0, 0, err
	}
	out := bufio.NewReader(stdout)
	line, lerr := out.ReadString('\n')
	setup := time.Since(start).Seconds()
	body, rerr := io.ReadAll(out)
	if err := cmd.Wait(); err != nil {
		return rep, 0, 0, fmt.Errorf("measuring process: %w", err)
	}
	if lerr != nil || rerr != nil || line != "ready\n" {
		return rep, 0, 0, fmt.Errorf("measuring process printed %q first (%v, %v)", line, lerr, rerr)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, 0, 0, fmt.Errorf("measuring process report: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return rep, 0, 0, errors.New("no resource usage for the measuring process")
	}
	return rep, setup, float64(ru.Maxrss) * 1024 / 1e6, nil // Maxrss is in KiB on Linux
}

// goldenCheck replays the batch workloads' experiments at
// paper.GoldenScale, seed 1, through paper.Sentinel against the golden
// tables. A table that is not byte-identical to its golden is a failed
// operation. Untimed.
func goldenCheck(ctx context.Context, dir string, workers int, t *tally) error {
	r := paper.NewRunner(paper.GoldenScale)
	r.Seed, r.Workers = 1, workers
	s := &paper.Sentinel{Runner: r, Baseline: paper.DirBaseline{Dir: dir}, Experiments: goldenExperiments()}
	rep, err := s.Run(ctx)
	if err != nil {
		return err
	}
	for _, e := range rep.Experiments {
		if e.Status == "ok" && e.Identical {
			t.ok()
		} else {
			t.fail("golden %s: %s, %d cells flagged, byte-identical %v", e.ID, e.Status, e.Flagged, e.Identical)
		}
	}
	fmt.Printf("golden replay: %d tables at scale 1/%d, %d regressed\n", rep.Checked, rep.Scale, rep.Regressions)
	return nil
}

// runtimeStats are the Go runtime's cumulative heap allocation and
// CPU accounting.
type runtimeStats struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a *runtimeStats) add(b runtimeStats) {
	a.allocBytes += b.allocBytes
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

// metrics returns heap MB allocated per pass and the share of CPU time
// the garbage collector took.
func (a runtimeStats) metrics(passes int) map[string]float64 {
	return map[string]float64{
		"runtime.alloc_mb":    ratio(a.allocBytes/1e6, float64(passes)),
		"runtime.gc_cpu_frac": ratio(a.gcCPU, a.totalCPU),
	}
}
