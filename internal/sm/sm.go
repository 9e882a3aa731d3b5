package sm

import (
	"poise/internal/cache"
	"poise/internal/config"
)

// Counters are the per-SM performance counters Poise's hardware
// inference engine samples (paper §VII-I budgets seven 32-bit counters
// per SM; we keep a few extra for experiment reporting). All values are
// cumulative; callers take window deltas with Sub.
type Counters struct {
	Instructions int64
	Loads        int64
	Stores       int64

	// AML accumulation over completed L1 misses: latency from miss issue
	// to data return at the SM.
	AMLSum   int64
	AMLCount int64

	// MSHR backpressure: load issue attempts rejected with a full file.
	Replays int64

	// L1 hit returns used by the latency-weighted busy model.
	HitReturns int64
}

// Sub returns c - o field-wise.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Instructions: c.Instructions - o.Instructions,
		Loads:        c.Loads - o.Loads,
		Stores:       c.Stores - o.Stores,
		AMLSum:       c.AMLSum - o.AMLSum,
		AMLCount:     c.AMLCount - o.AMLCount,
		Replays:      c.Replays - o.Replays,
		HitReturns:   c.HitReturns - o.HitReturns,
	}
}

// AML returns the mean L1 miss latency in the counted window, or 0.
func (c Counters) AML() float64 {
	if c.AMLCount == 0 {
		return 0
	}
	return float64(c.AMLSum) / float64(c.AMLCount)
}

// InstrPerLoad returns the dynamic In metric: instructions per global
// load. Returns a large value when no load was issued (compute-bound).
func (c Counters) InstrPerLoad() float64 {
	if c.Loads == 0 {
		if c.Instructions == 0 {
			return 0
		}
		return float64(c.Instructions)
	}
	return float64(c.Instructions) / float64(c.Loads)
}

// SM is one streaming multiprocessor: its schedulers, private L1 and
// MSHR file, and counters.
type SM struct {
	ID     int
	Scheds []*Scheduler
	L1     *cache.Cache
	MSHR   *cache.MSHRFile

	C Counters

	// Per-body-position load statistics for instruction-locality
	// policies (APCM). Sized to the running kernel's body.
	PCLoads []int64
	PCHits  []int64
	// BypassPC, when non-nil, marks body positions whose load misses
	// must not allocate L1 lines (APCM's streaming filter).
	BypassPC []bool

	// ReplayQ holds warps whose loads were rejected by a full MSHR
	// file. Each MSHR release wakes the head of the queue, so replay is
	// event-driven (no polling).
	ReplayQ []cache.Waiter
}

// NewSM builds an SM for the configuration.
func NewSM(id int, cfg config.Config) (*SM, error) {
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, err
	}
	s := &SM{
		ID:   id,
		L1:   l1,
		MSHR: cache.NewMSHRFile(cfg.L1.MSHRs),
	}
	for i := 0; i < cfg.SchedulersPerSM; i++ {
		s.Scheds = append(s.Scheds, NewScheduler(i, cfg.WarpsPerSched))
	}
	return s, nil
}

// Reset restores the SM to its just-constructed state: schedulers,
// L1, MSHR file, counters and per-kernel tables all as NewSM left
// them. The GPU pool relies on Reset leaving state
// reflect.DeepEqual-identical to fresh construction (nil per-kernel
// tables rather than emptied ones), so reusing a pooled SM can never
// perturb a simulation.
func (s *SM) Reset() {
	for _, sch := range s.Scheds {
		sch.Reset()
	}
	s.L1.Reset()
	s.MSHR.Clear()
	s.C = Counters{}
	s.PCLoads = nil
	s.PCHits = nil
	s.BypassPC = nil
	s.ReplayQ = nil
}

// SetTuple applies the warp-tuple to every scheduler of this SM.
func (s *SM) SetTuple(n, p int) {
	for _, sch := range s.Scheds {
		sch.SetTuple(n, p)
	}
}

// Tuple returns the tuple of the first scheduler (the schedulers of an
// SM always share one tuple in our policies).
func (s *SM) Tuple() (n, p int) { return s.Scheds[0].Tuple() }

// ActiveWarps returns the live warp count across schedulers.
func (s *SM) ActiveWarps() int {
	n := 0
	for _, sch := range s.Scheds {
		n += sch.ActiveWarps()
	}
	return n
}

// PrepareKernel resets per-kernel state (PC tables sized to the body,
// MSHRs, L1 contents) before a kernel launch. Warps still live here
// belong to a kernel that was cut short (an error, an abandoned
// interrupt) and are dropped, so the next kernel finds the slots free; a
// kernel that drained leaves none.
func (s *SM) PrepareKernel(bodyLen int) {
	s.PCLoads = make([]int64, bodyLen)
	s.PCHits = make([]int64, bodyLen)
	s.BypassPC = nil
	s.ReplayQ = s.ReplayQ[:0]
	s.MSHR.Reset()
	s.L1.Flush()
	for _, sch := range s.Scheds {
		for sch.ActiveWarps() > 0 {
			sch.Retire(sch.OldestActive())
		}
		sch.current = -1
	}
}

// RecordLoadPC accumulates the per-instruction-position load stats.
func (s *SM) RecordLoadPC(pc int32, hit bool) {
	if int(pc) >= len(s.PCLoads) {
		return
	}
	s.PCLoads[pc]++
	if hit {
		s.PCHits[pc]++
	}
}

// ShouldBypass reports whether APCM-style filtering forces the load at
// body position pc to bypass L1 allocation.
func (s *SM) ShouldBypass(pc int32) bool {
	return s.BypassPC != nil && int(pc) < len(s.BypassPC) && s.BypassPC[pc]
}
