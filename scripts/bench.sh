#!/bin/sh
# bench.sh — run the repository's locality-simulator micro-benchmarks
# and write a dated snapshot under bench/.
#
# Two artifacts per run:
#
#   bench/BENCH_<stamp>.txt   raw `go test -bench` output, directly
#                             usable with benchstat (old.txt new.txt)
#   bench/BENCH_<stamp>.json  machine-readable summary: one object per
#                             benchmark with ns/op and any custom
#                             b.ReportMetric units
#
# <stamp> is the UTC date, plus "-$BENCH_TAG" when a tag is set, so
# several snapshots can be recorded on one day (e.g. pre/post an
# optimization). The JSON snapshot is additionally filed into the
# durable document store at bench/store (content-addressed,
# integrity-checked), so the benchmark trajectory is queryable
# alongside run reports and paper tables.
#
# The run is BENCH_COUNT whole passes: each pass runs every
# micro-benchmark once and then every matrix benchmark once (-count 1),
# so a slow minute on the host lands on one sample of every benchmark
# instead of on all samples of one. With the samples of each benchmark
# taken back to back, two snapshots minutes apart moved benchmarks whose
# code had not changed by -17% to +36%.
#
# After the run, the new snapshot is compared benchstat-style against
# the most recent snapshot already in the baseline store: per
# benchmark, the median ns/op of each side's samples, the delta between
# the medians and the sample counts. Every benchmark gets BENCH_COUNT
# samples, because one run of any of them moves by tens of percent with
# host noise alone, so every row of the table compares medians; a
# baseline holding a single sample counts as its own median. With
# BENCH_CHECK=1 the script exits 3 when the median of
# BenchmarkRunAllParallel or BenchmarkServerWorkload regressed by more
# than BENCH_MAX_PCT percent (default 10) against the baseline's median
# — the CI bench job's regression gate; the other rows are reported,
# not gated. Every sample is kept in the .txt and .json snapshots, so
# benchstat sees them all.
#
# Environment:
#   MALLOCSIM_BENCH_SCALE  experiment scale divisor (default 128; the
#                          full-matrix RunAll benchmark honours it)
#   BENCH_TIME             -benchtime for the micro-benchmarks
#                          (default 1s; RunAll always runs 1x)
#   BENCH_COUNT            passes over all benchmarks (default 5): the
#                          samples of each, whose medians the table
#                          and the gate compare
#   BENCH_OUT              output directory (default bench/)
#   BENCH_TAG              optional snapshot tag appended to the stamp
#   BENCH_BASELINE_STORE   store to compare against and ingest into
#                          (default bench/store)
#   BENCH_CHECK            1 = fail (exit 3) on a >BENCH_MAX_PCT
#                          regression of the median of
#                          BenchmarkRunAllParallel or
#                          BenchmarkServerWorkload
#   BENCH_MAX_PCT          regression threshold percent (default 10)
#
# Usage: scripts/bench.sh            # from the repository root
set -eu

cd "$(dirname "$0")/.."

out="${BENCH_OUT:-bench}"
benchtime="${BENCH_TIME:-1s}"
date="$(date -u +%Y-%m-%d)"
tag="${BENCH_TAG:-}"
stamp="$date${tag:+-$tag}"
txt="$out/BENCH_$stamp.txt"
json="$out/BENCH_$stamp.json"
baseline="${BENCH_BASELINE_STORE:-bench/store}"
maxpct="${BENCH_MAX_PCT:-10}"
count="${BENCH_COUNT:-5}"
case "$count" in
  '' | *[!0-9]* | 0)
    echo "bench.sh: BENCH_COUNT must be a positive integer, got '$count'" >&2
    exit 2 ;;
esac
mkdir -p "$out"

# Capture the previous snapshot (the old side of the comparison)
# before this run is ingested, so a same-day re-run still compares
# against genuinely older numbers.
prev=""
if [ -d "$baseline" ]; then
  prev="$(mktemp)"
  if ! go run ./cmd/sentinel -store "$baseline" -latest-bench > "$prev" 2>/dev/null; then
    rm -f "$prev"
    prev=""
  fi
fi

micro='BenchmarkWorkloadSynthesis$|BenchmarkAllocatorPairReplay$|BenchmarkCacheDirectMapped$|BenchmarkCacheGroupSweep$|BenchmarkCacheGroupBlockSweep$|BenchmarkCacheGroupPairReplay$|BenchmarkSharingMultiRegion$|BenchmarkSharingPairReplay$|BenchmarkStackSimRef$|BenchmarkStackSimSweepExact$|BenchmarkStackSimPairReplay$'
matrix='BenchmarkRunAllParallel$|BenchmarkServerWorkload$'

{
  pass=1
  while [ "$pass" -le "$count" ]; do
    # Micro-benchmarks: the workload stage (program and server drivers
    # with their allocators and mem emit, into a row-counting sink, and
    # one program bundled over the five paper allocators), the
    # allocator stage (a recorded gs/firstfit op stream replayed into
    # firstfit on a batched Memory), cache simulator hot paths (per-ref
    # and columnar block delivery, and the cache group's replay of a
    # recorded gs/firstfit reference stream), the sharing attributor
    # (over a server pair's multi-region layout, and replaying three
    # recorded server pairs), and the LRU stack engine (per-ref, block,
    # and the replay of the recorded gs/firstfit stream).
    go test -run '^$' -bench "$micro" -benchtime "$benchtime" -count 1 .
    # Full experiment matrix through the parallel runner, plus the
    # concurrent server sweep: one iteration per sample (they
    # regenerate whole experiment tables per op).
    go test -run '^$' -bench "$matrix" -benchtime 1x -count 1 .
    pass=$((pass + 1))
  done
} | tee "$txt"

# Distil the raw output into JSON without external dependencies.
# Benchmark lines look like:
#   BenchmarkFoo-8  <iters>  <ns> ns/op  [<value> <unit>]...
awk -v date="$stamp" '
BEGIN { printf "{\n  \"date\": %c%s%c,\n  \"benchmarks\": [", 34, date, 34 }
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  if (n++) printf ","
  printf "\n    {\"name\": %c%s%c, \"iterations\": %s", 34, name, 34, $2
  for (i = 3; i + 1 <= NF; i += 2) {
    unit = $(i + 1)
    gsub(/[%\/]/, "_per_", unit)
    gsub(/[^A-Za-z0-9_.-]/, "_", unit)
    printf ", %c%s%c: %s", 34, unit, 34, $i
  }
  printf "}"
}
END {
  printf "\n  ],\n"
  printf "  \"goos\": %c%s%c,\n", 34, goos, 34
  printf "  \"goarch\": %c%s%c,\n", 34, goarch, 34
  printf "  \"cpu\": %c%s%c\n}\n", 34, cpu, 34
}' "$txt" > "$json"

echo "wrote $txt and $json"

# File the snapshot into the durable bench store (system of record).
mkdir -p "$baseline"
go run ./cmd/sentinel -store "$baseline" -ingest "$json"
if [ "$out/store" != "$baseline" ] && [ -d "$out/store" ]; then
  go run ./cmd/sentinel -store "$out/store" -ingest "$json"
fi

# Benchstat-style comparison against the previous snapshot. Both sides
# are the script's own JSON format: benchmark objects carry ns_per_op,
# one object per sample.
if [ -n "$prev" ]; then
  echo ""
  awk -v maxpct="$maxpct" -v check="${BENCH_CHECK:-0}" '
  function getname(line) {
    if (match(line, /"name": "[^"]*"/)) {
      s = substr(line, RSTART + 9, RLENGTH - 10)
      return s
    }
    return ""
  }
  function getns(line) {
    if (match(line, /"ns_per_op": [0-9.e+-]+/))
      return substr(line, RSTART + 13, RLENGTH - 13) + 0
    return -1
  }
  # median of samples[name, 1..k], by insertion sort into s.
  function median(samples, name, k,    s, i, j, v) {
    for (i = 1; i <= k; i++) {
      v = samples[name, i]
      for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
      s[j + 1] = v
    }
    if (k % 2) return s[(k + 1) / 2]
    return (s[k / 2] + s[k / 2 + 1]) / 2
  }
  /"date":/ {
    if (match($0, /"date": "[^"]*"/)) {
      d = substr($0, RSTART + 9, RLENGTH - 10)
      if (FNR == NR) olddate = d; else newdate = d
    }
  }
  /"name":/ {
    name = getname($0); ns = getns($0)
    if (name == "" || ns < 0) next
    if (FNR == NR) { old[name, ++oldn[name]] = ns }
    else {
      if (!(name in newn)) order[++n] = name
      new[name, ++newn[name]] = ns
    }
  }
  END {
    printf "benchstat %s vs %s (median ns/op)\n", olddate, newdate
    printf "%-42s %14s %14s %9s %6s\n", "benchmark", "old ns/op", "new ns/op", "delta", "runs"
    fail = 0
    for (i = 1; i <= n; i++) {
      name = order[i]
      newmed = median(new, name, newn[name])
      if (!(name in oldn)) {
        printf "%-42s %14s %14.2f %9s %6s\n", name, "-", newmed, "new", "-/" newn[name]
        continue
      }
      oldmed = median(old, name, oldn[name])
      delta = (newmed - oldmed) / oldmed * 100
      printf "%-42s %14.2f %14.2f %+8.1f%% %6s\n", name, oldmed, newmed, delta, oldn[name] "/" newn[name]
      if ((name == "BenchmarkRunAllParallel" || name == "BenchmarkServerWorkload") && delta > maxpct) fail = 1
    }
    if (check == 1 && fail) {
      printf "FAIL: a gated benchmark median regressed more than %s%%\n", maxpct
      exit 3
    }
  }' "$prev" "$json" || rc=$?
  rm -f "$prev"
  exit "${rc:-0}"
fi
