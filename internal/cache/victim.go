package cache

import "mallocsim/internal/trace"

// VictimCache simulates Jouppi's victim-cache organization (the paper's
// reference [11]: "Improving direct-mapped cache performance by the
// addition of a small fully-associative cache and prefetch buffers"):
// a direct-mapped main cache backed by a small fully-associative buffer
// holding the most recent evictions. A main-cache miss that hits in the
// victim buffer swaps the two lines and costs far less than a memory
// access; only misses in both count as full misses.
//
// The experiment this enables: how much of FIRSTFIT's conflict-miss
// pathology could 1990s hardware have absorbed?
type VictimCache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	tags      []uint64 // direct-mapped main tags
	victims   []uint64 // fully associative, LRU order (index 0 = MRU)

	accesses   uint64
	misses     uint64 // misses in both main and victim
	victimHits uint64 // main misses rescued by the victim buffer
}

// NewVictim builds a direct-mapped cache of the given configuration
// (Assoc must be 1) with a fully-associative victim buffer of `entries`
// lines.
func NewVictim(cfg Config, entries int) *VictimCache {
	cfg = cfg.withDefaults()
	if cfg.Assoc != 1 {
		panic("cache: victim cache requires a direct-mapped main cache")
	}
	if entries <= 0 {
		panic("cache: victim buffer needs at least one entry")
	}
	base := New(cfg) // reuse geometry validation
	v := &VictimCache{
		cfg:       cfg,
		lineShift: base.lineShift,
		setMask:   base.setMask,
		tags:      base.tags,
		victims:   make([]uint64, entries),
	}
	for i := range v.victims {
		v.victims[i] = invalidTag
	}
	return v
}

// Config returns the main-cache configuration.
func (v *VictimCache) Config() Config { return v.cfg }

// Entries returns the victim buffer size in lines.
func (v *VictimCache) Entries() int { return len(v.victims) }

// Ref implements trace.Sink.
func (v *VictimCache) Ref(r trace.Ref) {
	first, last := span(r.Addr, r.Size, v.lineShift)
	if first == last {
		v.accessLine(first)
		return
	}
	for line := first; ; line++ {
		v.accessLine(line)
		if line == last {
			break
		}
	}
}

func (v *VictimCache) accessLine(line uint64) {
	v.accesses++
	set := line & v.setMask
	if v.tags[set] == line {
		return // main hit
	}
	evicted := v.tags[set]
	// Probe the victim buffer.
	for i, t := range v.victims {
		if t == line {
			// Victim hit: swap the victim line with the evictee.
			v.victimHits++
			v.tags[set] = line
			v.victims[i] = evicted
			v.touchVictim(i)
			return
		}
	}
	// Full miss: fill from memory, push the evictee into the buffer.
	v.misses++
	v.tags[set] = line
	if evicted != invalidTag {
		v.insertVictim(evicted)
	}
}

// touchVictim moves entry i to the MRU position.
func (v *VictimCache) touchVictim(i int) {
	t := v.victims[i]
	copy(v.victims[1:i+1], v.victims[:i])
	v.victims[0] = t
}

// insertVictim adds a line at MRU, evicting the LRU entry.
func (v *VictimCache) insertVictim(line uint64) {
	copy(v.victims[1:], v.victims[:len(v.victims)-1])
	v.victims[0] = line
}

// Accesses returns the number of line accesses simulated.
func (v *VictimCache) Accesses() uint64 { return v.accesses }

// Misses returns full misses (missed main and victim buffer).
func (v *VictimCache) Misses() uint64 { return v.misses }

// VictimHits returns main-cache misses rescued by the buffer.
func (v *VictimCache) VictimHits() uint64 { return v.victimHits }

// MissRate returns full misses per access.
func (v *VictimCache) MissRate() float64 {
	if v.accesses == 0 {
		return 0
	}
	return float64(v.misses) / float64(v.accesses)
}
