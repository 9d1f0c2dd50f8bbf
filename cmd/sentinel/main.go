// Command sentinel is the golden-matrix regression sentinel: it
// replays the paper's experiment battery and diffs every table against
// a recorded baseline, exiting non-zero when results moved.
//
// The simulator is deterministic, so a clean tree reproduces its
// baseline byte-for-byte; any divergence is reported with the
// experiment, row, column and delta that moved — human-readable on
// stderr and, with -json, as a versioned JSON document on stdout.
//
// Baselines come from a directory of table documents (the committed
// golden fixtures, the default) or from a durable document store
// (-store DIR -from-store). The store is also the recording target:
//
//	sentinel                          # replay vs internal/paper/testdata/golden
//	sentinel -json > report.json      # same, machine-readable verdict
//	sentinel -store run/store -record # record current tables as the store baseline
//	sentinel -store run/store -from-store
//	                                  # replay vs the recorded store baseline
//	sentinel -store run/store -ingest bench/BENCH_2026-08-06.json ...
//	                                  # file documents into the store
//	sentinel -store bench/store -latest-bench
//	                                  # print the newest bench snapshot
//
// Exit status: 0 clean, 2 regression detected, 1 operational error.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mallocsim/internal/paper"
	"mallocsim/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scale     = flag.Uint64("scale", paper.GoldenScale, "experiment scale divisor; must match the baseline's recording scale")
		seed      = flag.Uint64("seed", 1, "workload seed")
		workers   = flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS; results identical at any setting)")
		baseline  = flag.String("baseline", "internal/paper/testdata/golden", "directory of baseline table documents")
		storeDir  = flag.String("store", "", "durable document store directory")
		fromStore = flag.Bool("from-store", false, "diff against the store baseline instead of -baseline (requires -store)")
		record    = flag.Bool("record", false, "replay the battery and record the tables into -store, then exit")
		ingest    = flag.Bool("ingest", false, "ingest the JSON documents named as arguments into -store, then exit")
		latest    = flag.Bool("latest-bench", false, "print the most recently stored bench snapshot document to stdout, then exit (requires -store)")
		threshold = flag.Float64("threshold", 0, "relative delta above which a numeric cell regresses (0 = any change)")
		jsonOut   = flag.Bool("json", false, "write the JSON report document to stdout (text verdict goes to stderr)")
		only      = flag.String("only", "", "comma-separated experiment IDs (default: the full paper battery)")
	)
	flag.Parse()

	var st store.Store
	if *storeDir != "" {
		ds, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sentinel: %v\n", err)
			return 1
		}
		st = ds
	}
	if (*fromStore || *record || *ingest || *latest) && st == nil {
		fmt.Fprintln(os.Stderr, "sentinel: -from-store, -record, -ingest and -latest-bench require -store DIR")
		return 1
	}

	if *latest {
		// List is sorted by (StoredAt, Hash), so the last bench-snapshot
		// entry is the most recent one; scripts/bench.sh uses this to
		// find the old side of its benchstat comparison.
		var found *store.Entry
		for _, e := range st.List() {
			if e.Meta.Kind == "bench-snapshot" {
				cp := e
				found = &cp
			}
		}
		if found == nil {
			fmt.Fprintln(os.Stderr, "sentinel: no bench-snapshot documents in store")
			return 1
		}
		data, err := st.Get(found.Hash)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sentinel: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sentinel: latest bench snapshot %s (%s)\n", found.Meta.Name, found.Hash)
		os.Stdout.Write(data)
		return 0
	}

	if *ingest {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "sentinel: -ingest needs at least one file argument")
			return 1
		}
		for _, path := range flag.Args() {
			hash, kind, err := ingestFile(st, path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sentinel: ingest %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("%s  %s  %s\n", hash, kind, path)
		}
		return 0
	}

	r := paper.NewRunner(*scale)
	r.Seed = *seed
	r.Workers = *workers
	ids := splitIDs(*only)
	ctx := context.Background()

	if *record {
		if len(ids) == 0 {
			for _, e := range r.Experiments() {
				ids = append(ids, e.ID)
			}
		}
		tables, err := r.Tables(ctx, ids...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sentinel: %v\n", err)
			return 1
		}
		for i, id := range ids {
			hash, err := paper.RecordTable(st, tables[i], *scale, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sentinel: record %s: %v\n", id, err)
				return 1
			}
			fmt.Printf("%s  %s\n", hash, id)
		}
		return 0
	}

	var src paper.BaselineSource = paper.DirBaseline{Dir: *baseline}
	if *fromStore {
		src = paper.StoreBaseline{Store: st}
	}
	s := &paper.Sentinel{Runner: r, Baseline: src, Threshold: *threshold, Experiments: ids}
	rep, err := s.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sentinel: %v\n", err)
		return 1
	}
	fmt.Fprint(os.Stderr, rep.String())
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "sentinel: %v\n", err)
			return 1
		}
	}
	if !rep.Clean() {
		return 2
	}
	return 0
}

// splitIDs parses the -only list.
func splitIDs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// ingestFile stores one JSON document content-addressed by the SHA-256
// of its bytes, sniffing the document type to fill the index metadata:
// paper tables by their kind field, run reports likewise, and bench
// snapshots by their benchmarks array (named by snapshot date).
func ingestFile(st store.Store, path string) (hash, kind string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	var doc struct {
		Kind       string          `json:"kind"`
		ID         string          `json:"id"`
		Program    string          `json:"program"`
		Allocator  string          `json:"allocator"`
		Scale      uint64          `json:"scale"`
		Seed       uint64          `json:"seed"`
		Date       string          `json:"date"`
		Benchmarks json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return "", "", fmt.Errorf("not a JSON document: %w", err)
	}
	var meta store.Meta
	switch {
	case doc.Kind == paper.TableKind:
		meta = store.Meta{Kind: "paper-table", Name: doc.ID}
	case doc.Kind == "mallocsim-run-report":
		meta = store.Meta{
			Kind: "run-report", Program: doc.Program, Allocator: doc.Allocator,
			Scale: doc.Scale, Seed: doc.Seed,
		}
	case len(doc.Benchmarks) > 0:
		meta = store.Meta{Kind: "bench-snapshot", Name: doc.Date}
	default:
		return "", "", fmt.Errorf("unrecognized document (kind %q, no benchmarks array)", doc.Kind)
	}
	sum := sha256.Sum256(raw)
	h := hex.EncodeToString(sum[:])
	if err := st.Put(h, raw, meta); err != nil {
		return "", "", err
	}
	return h, meta.Kind, nil
}
