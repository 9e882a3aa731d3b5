// Package cache implements the set-associative caches of the simulated
// GPU: the per-SM L1 data cache (with MSHRs, the pollute-bit
// allocate-or-bypass policy that PCAL/Poise rely on, per-line last-warp
// tracking for intra-/inter-warp hit accounting, and optional victim
// tags for CCWS) and the banked shared L2.
package cache

import (
	"fmt"
	"math/bits"

	"poise/internal/config"
)

// Stats accumulates access counters. All fields are cumulative; callers
// sample windows by snapshotting and subtracting.
type Stats struct {
	Accesses int64
	Hits     int64
	// Hit split by reuse origin: a hit is intra-warp when the accessing
	// warp is the last warp that touched the line, inter-warp otherwise.
	IntraWarpHits int64
	InterWarpHits int64
	// Split by the accessing warp's pollute privilege at access time.
	PolluteAccesses int64
	PolluteHits     int64
	NoPollAccesses  int64
	NoPollHits      int64

	Evictions int64
	Bypasses  int64 // misses that did not reserve a line
	Fills     int64
}

// Add returns s + o field-wise (a sum over SMs or kernels).
func (s Stats) Add(o Stats) Stats { return s.plus(o, 1) }

// Sub returns s - o field-wise (window delta).
func (s Stats) Sub(o Stats) Stats { return s.plus(o, -1) }

// plus returns s + k*o field-wise. It is the one list of the counters
// that sums and window deltas carry.
func (s Stats) plus(o Stats, k int64) Stats {
	return Stats{
		Accesses:        s.Accesses + k*o.Accesses,
		Hits:            s.Hits + k*o.Hits,
		IntraWarpHits:   s.IntraWarpHits + k*o.IntraWarpHits,
		InterWarpHits:   s.InterWarpHits + k*o.InterWarpHits,
		PolluteAccesses: s.PolluteAccesses + k*o.PolluteAccesses,
		PolluteHits:     s.PolluteHits + k*o.PolluteHits,
		NoPollAccesses:  s.NoPollAccesses + k*o.NoPollAccesses,
		NoPollHits:      s.NoPollHits + k*o.NoPollHits,
		Evictions:       s.Evictions + k*o.Evictions,
		Bypasses:        s.Bypasses + k*o.Bypasses,
		Fills:           s.Fills + k*o.Fills,
	}
}

// HitRate returns Hits/Accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// IntraWarpHitRate returns intra-warp hits over all accesses — the
// paper's η.
func (s Stats) IntraWarpHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.IntraWarpHits) / float64(s.Accesses)
}

// PolluteHitRate returns the hit rate of polluting warps (hp).
func (s Stats) PolluteHitRate() float64 {
	if s.PolluteAccesses == 0 {
		return 0
	}
	return float64(s.PolluteHits) / float64(s.PolluteAccesses)
}

// NoPollHitRate returns the hit rate of non-polluting warps (hnp).
func (s Stats) NoPollHitRate() float64 {
	if s.NoPollAccesses == 0 {
		return 0
	}
	return float64(s.NoPollHits) / float64(s.NoPollAccesses)
}

type line struct {
	tag      uint64
	valid    bool
	lastWarp int32 // global warp id of the last toucher
	lastPC   int32 // body index of the last touching instruction
	lruTick  uint64
}

// Cache is one set-associative cache array. It is a pure tag/state
// model: timing lives in the simulator's queueing network.
type Cache struct {
	cfg      config.CacheConfig
	sets     []line // sets*ways, row-major by set
	ways     int
	setCount int
	setShift uint   // log2(line bytes)
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	pow2     bool
	tick     uint64

	Stats Stats

	victim *VictimTags // optional, enabled for CCWS
}

// New builds a cache from the geometry in cfg. The geometry must be
// valid (see config.CacheConfig.Validate).
func New(cfg config.CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	pow2 := sets&(sets-1) == 0
	c := &Cache{
		cfg:      cfg,
		sets:     make([]line, sets*cfg.Ways),
		ways:     cfg.Ways,
		setCount: sets,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		pow2:     pow2,
	}
	if pow2 {
		c.setMask = uint64(sets - 1)
	}
	return c, nil
}

// EnableVictimTags attaches a victim tag array with the given number of
// entries per warp (CCWS's lost-locality detector).
func (c *Cache) EnableVictimTags(entriesPerWarp, warps int) {
	c.victim = NewVictimTags(entriesPerWarp, warps)
}

// Victim returns the victim tag array, or nil.
func (c *Cache) Victim() *VictimTags { return c.victim }

// LineAddr reduces a byte address to its line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.setShift }

func (c *Cache) setIndex(lineAddr uint64) uint64 {
	switch c.cfg.Index {
	case config.IndexHash:
		// xor-fold the upper address bits into the set index; mirrors
		// the baseline GPU's hashed set index that spreads power-of-two
		// strides across sets.
		h := lineAddr
		h ^= h >> 10
		h ^= h >> 20
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 32
		if c.pow2 {
			return h & c.setMask
		}
		return h % uint64(c.setCount)
	default:
		if c.pow2 {
			return lineAddr & c.setMask
		}
		return lineAddr % uint64(c.setCount)
	}
}

// Result describes the outcome of a Lookup.
type Result struct {
	Hit bool
}

// Lookup probes the cache for the line containing addr, accessed by the
// given global warp id at body position pc with the given pollute
// privilege. On a hit it updates LRU and last-toucher state. It never
// allocates: misses are filled later via Fill (after the memory system
// responds) so that MSHR merging behaves naturally.
func (c *Cache) Lookup(addr uint64, warp int32, pc int32, pollute bool) Result {
	la := c.LineAddr(addr)
	set := c.setIndex(la)
	base := int(set) * c.ways
	c.tick++
	c.Stats.Accesses++
	if pollute {
		c.Stats.PolluteAccesses++
	} else {
		c.Stats.NoPollAccesses++
	}
	for i := base; i < base+c.ways; i++ {
		l := &c.sets[i]
		if l.valid && l.tag == la {
			c.Stats.Hits++
			if l.lastWarp == warp {
				c.Stats.IntraWarpHits++
			} else {
				c.Stats.InterWarpHits++
			}
			if pollute {
				c.Stats.PolluteHits++
			} else {
				c.Stats.NoPollHits++
			}
			l.lruTick = c.tick
			l.lastWarp = warp
			l.lastPC = pc
			return Result{Hit: true}
		}
	}
	if c.victim != nil {
		// A miss that matches this warp's victim tags is lost intra-warp
		// locality: CCWS's feedback signal.
		c.victim.NoteMiss(warp, la)
	}
	return Result{}
}

// Contains reports whether the line holding addr is resident, without
// touching LRU or statistics (used by policies peeking at state).
func (c *Cache) Contains(addr uint64) bool {
	la := c.LineAddr(addr)
	base := int(c.setIndex(la)) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.sets[i].valid && c.sets[i].tag == la {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr after a miss response. When
// allocate is false (non-polluting requester, or a bypass decision from
// a cache-management policy) the line is not installed and the fill is
// counted as a bypass. The evicted line's tag, if any, is pushed to the
// victim tag array of the warp that owned it.
func (c *Cache) Fill(addr uint64, warp int32, pc int32, allocate bool) {
	if !allocate {
		c.Stats.Bypasses++
		return
	}
	la := c.LineAddr(addr)
	set := c.setIndex(la)
	base := int(set) * c.ways
	c.tick++
	// Already present (merged fill raced with another): refresh only.
	for i := base; i < base+c.ways; i++ {
		l := &c.sets[i]
		if l.valid && l.tag == la {
			l.lruTick = c.tick
			return
		}
	}
	// Victim choice: first invalid way, else true LRU.
	var lru *line
	for i := base; i < base+c.ways; i++ {
		l := &c.sets[i]
		if !l.valid {
			lru = l
			break
		}
		if lru == nil || l.lruTick < lru.lruTick {
			lru = l
		}
	}
	if lru.valid {
		c.Stats.Evictions++
		if c.victim != nil {
			c.victim.NoteEviction(lru.lastWarp, lru.tag)
		}
	}
	c.Stats.Fills++
	*lru = line{tag: la, valid: true, lastWarp: warp, lastPC: pc, lruTick: c.tick}
}

// Reset restores the cache to its just-constructed state: all lines
// invalid, LRU clock and statistics zeroed, victim tags detached. The
// GPU pool relies on Reset leaving state reflect.DeepEqual-identical
// to New with the same geometry.
func (c *Cache) Reset() {
	c.Flush()
	c.Stats = Stats{}
	c.victim = nil
}

// Flush invalidates all lines and resets the LRU clock. Statistics are
// preserved (callers snapshot/restore as needed).
func (c *Cache) Flush() {
	for i := range c.sets {
		c.sets[i] = line{}
	}
	c.tick = 0
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].valid {
			n++
		}
	}
	return n
}

func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dKB %d-way %d sets %s}",
		c.cfg.SizeBytes/1024, c.ways, c.setCount, c.cfg.Index)
}
