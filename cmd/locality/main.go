// Command locality regenerates the tables and figures of "Improving
// the Cache Locality of Memory Allocation" (PLDI 1993) from the
// simulation framework in this repository.
//
// Usage:
//
//	locality -list
//	locality -exp figure4
//	locality -exp all -scale 16 -format markdown
//	locality -exp figure4,figure5 -json
//	locality -exp all -metrics-out tables.json
//
// Each experiment drives synthetic models of the paper's five test
// programs through real implementations of the paper's five allocators
// on simulated memory, and reports the same rows/series the paper does;
// the ext-* experiments extend the study. -json replaces the text output
// with a versioned JSON array of table documents; -metrics-out writes
// that JSON to a file while the chosen -format still goes to stdout.
// -check additionally runs every simulation under the shadow heap
// auditor (internal/alloc/shadow) and exits with status 3 if any
// allocator contract violation is detected; the auditor is host-side
// only, so all reported numbers are unchanged. ext-frag and ext-apps
// drive their allocators without the simulation pipeline, so the
// auditor does not see them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"mallocsim/internal/paper"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (figure1..figure9, table1..table6, modern, server, ext-{penalty,victim,flush,tlb,lifetime,seqfit,taxonomy,hierarchy,linesize,apps,frag,seeds}), comma-separated, or 'all'")
		scale   = flag.Uint64("scale", paper.DefaultScale, "run 1/scale of each program's events (1 = full scale)")
		seed    = flag.Uint64("seed", 1, "workload random seed")
		workers = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential); output is identical at any setting")
		format  = flag.String("format", "text", "output format: text, csv, markdown or plot (ASCII chart for curve experiments)")
		jsonOut = flag.Bool("json", false, "print a versioned JSON array of table documents instead of -format")
		metrics = flag.String("metrics-out", "", "also write the JSON table documents to this file")
		check   = flag.Bool("check", false, "run every simulation under the shadow heap auditor; exit 3 on contract violations")
		timeout = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the in-flight simulations instead of
	// killing the process mid-write; -timeout bounds the whole run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	r := paper.NewRunner(*scale)
	r.Seed = *seed
	r.Workers = *workers
	r.CheckHeap = *check

	if *list {
		for _, e := range r.AllExperiments() {
			fmt.Printf("%-13s %s\n", e.ID, e.Desc)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		ids = r.Names()
	} else {
		ids = strings.Split(*exp, ",")
	}
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}

	tables, err := r.Tables(ctx, ids...)
	if errors.Is(err, paper.ErrUnknownExperiment) {
		fmt.Fprintf(os.Stderr, "locality: %v (try -list)\n", err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "locality: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		if err := writeTables(os.Stdout, tables); err != nil {
			fmt.Fprintf(os.Stderr, "locality: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, t := range tables {
			switch *format {
			case "csv":
				fmt.Print(t.CSV())
			case "markdown":
				fmt.Println(t.Markdown())
			case "plot":
				// The paper draws its paging figures on a log axis.
				logY := t.ID == "figure2" || t.ID == "figure3"
				fmt.Println(t.Plot(logY))
			default:
				fmt.Println(t.String())
			}
		}
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "locality: %v\n", err)
			os.Exit(1)
		}
		if err := writeTables(f, tables); err != nil {
			fmt.Fprintf(os.Stderr, "locality: write %s: %v\n", *metrics, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "locality: close %s: %v\n", *metrics, err)
			os.Exit(1)
		}
	}

	if *check {
		snaps, violations := r.ShadowSnapshots()
		fmt.Fprintf(os.Stderr, "locality: heap auditor: %d runs checked, %d violations\n",
			len(snaps), violations)
		if violations > 0 {
			keys := make([]string, 0, len(snaps))
			for k := range snaps {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				for _, v := range snaps[k].First {
					fmt.Fprintf(os.Stderr, "locality:   %s: %s\n", k, v.String())
				}
			}
			os.Exit(3)
		}
	}
}

func writeTables(w *os.File, tables []*paper.Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tables)
}
