// Command heapmap draws the address-space occupancy of a workload's
// heap under one or more allocators: which parts of the memory the
// allocator requested actually hold live data at the end of the run.
//
// The maps make the paper's space arguments visible at a glance —
// FIRSTFIT's holes, BSD's half-empty power-of-two blocks, the chunked
// allocators' dense pages:
//
//	heapmap -program espresso -alloc firstfit,bsd,custom -scale 64
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mallocsim/internal/alloc"
	_ "mallocsim/internal/alloc/all"
	"mallocsim/internal/cost"
	"mallocsim/internal/heapmap"
	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
	"mallocsim/internal/workload"
)

// tracker records the live allocation set while delegating.
type tracker struct {
	alloc.Allocator
	live map[uint64]uint32
}

func (t *tracker) Malloc(n uint32) (uint64, error) {
	p, err := t.Allocator.Malloc(n)
	if err == nil {
		t.live[p] = n
	}
	return p, err
}

func (t *tracker) Free(p uint64) error {
	err := t.Allocator.Free(p)
	if err == nil {
		delete(t.live, p)
	}
	return err
}

func main() {
	var (
		progName = flag.String("program", "espresso", "workload: "+strings.Join(workload.Names(), ", "))
		allocCSV = flag.String("alloc", "firstfit,bsd,custom", "comma-separated allocators")
		scale    = flag.Uint64("scale", 64, "run 1/scale of the program's events")
		seed     = flag.Uint64("seed", 1, "workload seed")
		cell     = flag.Uint64("cell", 1024, "bytes of address space per glyph")
	)
	flag.Parse()

	prog, ok := workload.ByName(*progName)
	if !ok {
		log.Fatalf("heapmap: unknown program %q", *progName)
	}
	exclude := func(name string) bool { return workload.AppRegion(prog.Name, name) }

	for _, name := range strings.Split(*allocCSV, ",") {
		name = strings.TrimSpace(name)
		m := mem.New(trace.Discard, &cost.Meter{})
		inner, err := alloc.New(name, m)
		if err != nil {
			log.Fatal(err)
		}
		tr := &tracker{Allocator: inner, live: map[uint64]uint32{}}
		if _, err := workload.Run(m, tr, workload.Config{Program: prog, Scale: *scale, Seed: *seed}); err != nil {
			log.Fatal(err)
		}
		var live []heapmap.Block
		for addr, size := range tr.live {
			live = append(live, heapmap.Block{Addr: addr, Size: size})
		}
		opt := heapmap.Options{CellBytes: *cell, Exclude: exclude}
		sum := heapmap.Summarize(m, live, opt)
		fmt.Printf("=== %s on %s (scale 1/%d) ===\n", name, prog.Name, *scale)
		fmt.Printf("requested %d KB, live %d KB (%.0f%% utilized), %d holes, largest %d KB\n\n",
			sum.RequestedBytes/1024, sum.LiveBytes/1024,
			100*float64(sum.LiveBytes)/float64(sum.RequestedBytes+1),
			sum.Holes, sum.LargestHoleKB)
		fmt.Print(heapmap.Render(m, live, opt))
		fmt.Println()
	}
}
