// Package workload synthesizes the allocation and memory-reference
// behaviour of the paper's five test programs (Tables 1–3): ESPRESSO,
// GhostScript (three input sets), PTC, GAWK and MAKE.
//
// The original binaries and their Pixie traces are not available, so
// each program is modelled by the statistics the paper publishes —
// total instructions, data references, objects allocated and freed, and
// maximum heap size — plus size and lifetime distributions consistent
// with the paper's observations: most allocations are small (24 bytes
// is "a very common allocation request size"), a few object sizes
// dominate, most objects die young, and a long-lived core accounts for
// the heap footprint. PTC frees nothing (Table 2: 0 objects freed);
// GAWK churns 1.7 million objects through a 60 KB heap.
//
// The driver (Run) replays a program model against a real allocator on
// simulated memory: the allocator's placement decisions determine where
// the application's heap references land, which is exactly the coupling
// the paper measures. RunServerContext does the same for a server
// scenario; the two drivers differ only in schedule and share one
// application model (app).
package workload

// SizeWeight is one entry of a discrete object-size distribution.
type SizeWeight struct {
	Size   uint32
	Weight float64
}

// Program is a synthetic model of one of the paper's test programs.
// Counts are full-scale (scale 1) values matching Tables 2 and 3.
type Program struct {
	// Name is the paper's program name, lower-cased ("espresso", ...).
	Name string
	// Description summarizes the application domain (Table 1).
	Description string

	// Instr is the total instruction count (Table 2, ×10⁶ there).
	Instr uint64
	// DataRefs is the total data reference count.
	DataRefs uint64
	// Allocs and Frees are the object counts (Table 2, ×10³ there).
	Allocs uint64
	Frees  uint64
	// MaxHeapKB is the paper's maximum heap size in kilobytes.
	MaxHeapKB uint64

	// ChurnSizes is the size distribution of short-lived objects;
	// ImmortalSizes of the long-lived core that accounts for the heap
	// footprint.
	ChurnSizes    []SizeWeight
	ImmortalSizes []SizeWeight

	// ShortLife and MediumLife are geometric mean lifetimes (in
	// allocation events) of churn objects; MediumFrac is the fraction
	// of churn objects drawing the medium lifetime.
	ShortLife  float64
	MediumLife float64
	MediumFrac float64

	// FreeBatch models phase behaviour: deaths are deferred to the next
	// multiple of FreeBatch allocation steps, so objects are released
	// in bursts (building then discarding a structure) rather than in a
	// perfectly interleaved stream. Bursty release keeps sequential-fit
	// freelists populated — the searches whose locality cost the paper
	// measures. Zero or one means no batching.
	FreeBatch uint64

	// StackFrac and GlobalFrac split data references between the stack
	// and global segments; the rest go to the heap.
	StackFrac  float64
	GlobalFrac float64
	// GlobalBytes is the size of the simulated global segment.
	GlobalBytes uint64
}

// InstrPerAlloc returns the mean instructions between allocations.
func (p Program) InstrPerAlloc() float64 {
	return float64(p.Instr) / float64(p.Allocs)
}

// RefsPerAlloc returns the mean data references between allocations.
func (p Program) RefsPerAlloc() float64 {
	return float64(p.DataRefs) / float64(p.Allocs)
}

// ImmortalCount returns the number of never-freed objects at full
// scale (Table 2: objects allocated minus objects freed).
func (p Program) ImmortalCount() uint64 {
	if p.Allocs < p.Frees {
		return 0
	}
	return p.Allocs - p.Frees
}

const m = 1_000_000
const k = 1_000

var catalog = []Program{
	{
		Name:        "espresso",
		Description: "PLA logic optimizer, release 2.3 example input",
		Instr:       2506 * m,
		DataRefs:    595 * m,
		Allocs:      1673 * k,
		Frees:       1666 * k,
		MaxHeapKB:   396,
		ChurnSizes: []SizeWeight{
			{8, 1}, {16, 3}, {24, 4}, {32, 2}, {40, 1}, {64, 0.5}, {128, 0.2},
		},
		ImmortalSizes: []SizeWeight{
			{16, 2}, {24, 3}, {32, 2}, {48, 1.5}, {64, 1}, {128, 0.4},
			{256, 0.1}, {512, 0.05}, {1024, 0.02},
		},
		ShortLife:   40,
		MediumLife:  1500,
		MediumFrac:  0.2,
		FreeBatch:   64,
		StackFrac:   0.35,
		GlobalFrac:  0.10,
		GlobalBytes: 48 * 1024,
	},
	{
		Name:          "gs",
		Description:   "GhostScript 2.1 interpreting a 126-page manual (GS-Large)",
		Instr:         1344 * m,
		DataRefs:      421 * m,
		Allocs:        924 * k,
		Frees:         898 * k,
		MaxHeapKB:     4129,
		ChurnSizes:    gsChurnSizes,
		ImmortalSizes: gsImmortalSizes,
		ShortLife:     30,
		MediumLife:    1000,
		MediumFrac:    0.2,
		FreeBatch:     64,
		StackFrac:     0.33,
		GlobalFrac:    0.12,
		GlobalBytes:   96 * 1024,
	},
	{
		Name:          "gs-medium",
		Description:   "GhostScript 2.1, medium input set (Table 3)",
		Instr:         539 * m,
		DataRefs:      172 * m,
		Allocs:        567 * k,
		Frees:         551 * k,
		MaxHeapKB:     2721,
		ChurnSizes:    gsChurnSizes,
		ImmortalSizes: gsImmortalSizes,
		ShortLife:     30,
		MediumLife:    1000,
		MediumFrac:    0.2,
		FreeBatch:     64,
		StackFrac:     0.33,
		GlobalFrac:    0.12,
		GlobalBytes:   96 * 1024,
	},
	{
		Name:          "gs-small",
		Description:   "GhostScript 2.1, small input set (Table 3)",
		Instr:         195 * m,
		DataRefs:      66 * m,
		Allocs:        109 * k,
		Frees:         102 * k,
		MaxHeapKB:     1092,
		ChurnSizes:    gsChurnSizes,
		ImmortalSizes: gsImmortalSizes,
		ShortLife:     30,
		MediumLife:    1000,
		MediumFrac:    0.2,
		FreeBatch:     64,
		StackFrac:     0.33,
		GlobalFrac:    0.12,
		GlobalBytes:   96 * 1024,
	},
	{
		Name:        "ptc",
		Description: "Pascal-to-C translator; allocates and never frees",
		Instr:       367 * m,
		DataRefs:    125 * m,
		Allocs:      103 * k,
		Frees:       0,
		MaxHeapKB:   3146,
		ChurnSizes: []SizeWeight{ // unused: every object is immortal
			{16, 1}, {24, 1},
		},
		ImmortalSizes: []SizeWeight{
			{12, 1}, {16, 2}, {20, 2}, {24, 2}, {28, 1}, {32, 1},
			{48, 0.5}, {64, 0.3}, {128, 0.1}, {1024, 0.01},
		},
		ShortLife:   1,
		MediumLife:  1,
		MediumFrac:  0,
		FreeBatch:   0,
		StackFrac:   0.30,
		GlobalFrac:  0.08,
		GlobalBytes: 32 * 1024,
	},
	{
		Name:        "gawk",
		Description: "GNU awk interpreter; 1.7M objects through a 60 KB heap",
		Instr:       1215 * m,
		DataRefs:    374 * m,
		Allocs:      1704 * k,
		Frees:       1702 * k,
		MaxHeapKB:   60,
		ChurnSizes: []SizeWeight{
			{8, 1}, {16, 3}, {24, 4}, {32, 1.5}, {48, 0.5},
		},
		ImmortalSizes: []SizeWeight{
			{16, 2}, {24, 3}, {32, 2}, {64, 0.5},
		},
		ShortLife:   8,
		MediumLife:  150,
		MediumFrac:  0.15,
		FreeBatch:   16,
		StackFrac:   0.38,
		GlobalFrac:  0.12,
		GlobalBytes: 24 * 1024,
	},
	{
		Name:        "make",
		Description: "GNU make analyzing the makefile of a large application",
		Instr:       56 * m,
		DataRefs:    17 * m,
		Allocs:      24 * k,
		Frees:       13 * k,
		MaxHeapKB:   380,
		ChurnSizes: []SizeWeight{
			{8, 1}, {16, 2}, {24, 2}, {32, 1}, {64, 0.5},
		},
		ImmortalSizes: []SizeWeight{
			{16, 1}, {24, 2}, {32, 2}, {48, 1}, {64, 0.5}, {128, 0.2},
		},
		ShortLife:   50,
		MediumLife:  800,
		MediumFrac:  0.2,
		FreeBatch:   32,
		StackFrac:   0.35,
		GlobalFrac:  0.10,
		GlobalBytes: 32 * 1024,
	},
}

// GhostScript's heap is dominated by a long-lived core with a heavy
// tail of large buffers (raster lines, font caches), matching its
// 4 MB / 26 k-object footprint (about 160 bytes per live object).
var gsImmortalSizes = []SizeWeight{
	{16, 1.5}, {24, 2}, {32, 2}, {48, 1.5}, {64, 1.5}, {96, 1},
	{160, 0.6}, {256, 0.5}, {512, 0.25}, {1200, 0.1},
	{4096, 0.05}, {16384, 0.015}, {32768, 0.008},
}

var gsChurnSizes = []SizeWeight{
	{8, 1}, {16, 2}, {24, 3}, {32, 2}, {48, 1}, {64, 0.5},
}

// Programs returns the full catalog: the paper's five programs plus the
// two additional GhostScript input sets of Table 3.
func Programs() []Program {
	out := make([]Program, len(catalog))
	copy(out, catalog)
	return out
}

// PaperPrograms returns the five programs of Tables 1 and 2, in the
// paper's column order.
func PaperPrograms() []Program {
	names := []string{"espresso", "gs", "ptc", "gawk", "make"}
	out := make([]Program, 0, len(names))
	for _, n := range names {
		p, ok := ByName(n)
		if !ok {
			panic("workload: catalog missing " + n)
		}
		out = append(out, p)
	}
	return out
}

// GhostScriptInputs returns the three GhostScript input sets of
// Table 3, smallest first.
func GhostScriptInputs() []Program {
	names := []string{"gs-small", "gs-medium", "gs"}
	out := make([]Program, 0, len(names))
	for _, n := range names {
		p, _ := ByName(n)
		out = append(out, p)
	}
	return out
}

// ByName looks a program up by its catalog name.
func ByName(name string) (Program, bool) {
	for _, p := range catalog {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// Names returns the catalog names in order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, p := range catalog {
		out[i] = p.Name
	}
	return out
}
