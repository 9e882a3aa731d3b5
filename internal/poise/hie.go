package poise

import (
	"math"

	"poise/internal/cache"
	"poise/internal/config"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/sm"
	"poise/internal/trace"
)

// hieState enumerates the per-SM FSM of the hardware inference engine
// (paper §VI; the hardware budget is one 7-state FSM per SM).
type hieState int

// Each warm-up state sits directly before the sample state it opens:
// advance moves from one to the other with state++.
const (
	stBaseWarm     hieState = iota // warming up at the baseline tuple
	stBaseSample                   // sampling features at the baseline tuple
	stRefWarm                      // warming up at (1, 1)
	stRefSample                    // sampling features at (1, 1)
	stSearchWarm                   // warming up at a local-search probe
	stSearchSample                 // sampling a local-search probe
	stRun                          // executing at the converged tuple
)

// snapshot captures the cumulative counters of one SM at a window edge.
type snapshot struct {
	l1 cache.Stats
	c  sm.Counters
}

func snap(s *sm.SM) snapshot { return snapshot{l1: s.L1.Stats, c: s.C} }

// windowFrom converts the delta between two snapshots into a feature
// Window.
func windowFrom(a, b snapshot) Window {
	return WindowFrom(b.l1.Sub(a.l1), b.c.Sub(a.c))
}

// ipcSince returns instructions per cycle between a snapshot and now.
func ipcSince(a snapshot, s *sm.SM, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(s.C.Instructions-a.c.Instructions) / float64(cycles)
}

// hie is the per-SM inference engine state.
type hie struct {
	state    hieState
	nextAt   int64
	epochEnd int64

	base    Window  // features sampled at the baseline tuple
	baseIPC float64 // IPC observed during the baseline feature window
	snapA   snapshot

	search sched.Search // the local search from this epoch's prediction

	predN, predP int // raw prediction of this epoch (for displacement stats)

	// Run-phase accounting for the fallback guard: the IPC of the long
	// run window is the only unbiased signal (probe windows right after
	// a tuple switch ride on in-flight state).
	runSnap    snapshot
	runStartAt int64
	runN, runP int
	strikes    int
	checked    bool // interim run-phase check done for this epoch

	// Displacement bookkeeping across the kernel (Fig. 10).
	dispN, dispP, dispE float64
	decided             int
}

// Policy is Poise's runtime scheduler policy: the HIE engine, one FSM
// per SM, running every inference epoch from the tuple Source gives.
// Params times every window and sets the local search's strides (Table
// IV): strides (0, 0) search nothing, Fig. 11's pure prediction, and an
// epoch longer than the kernel samples and searches once per kernel.
type Policy struct {
	Params config.PoiseParams
	Source Source
	// Guard is the baseline-IPC fallback guard, an engineering
	// extension over the paper: a throttled run phase that measures
	// below the epoch's baseline feature window (IPC at the maximum
	// tuple) runs the rest of the epoch at maximum warps, and two such
	// epochs pin the kernel there. It bounds the damage of a
	// mispredicted throttle on TLP-loving kernels to roughly the
	// sampling overhead. Off is paper-exact.
	Guard bool

	engines   []*hie
	fallbacks int // epochs that reverted to the maximum tuple
	maxN      int
}

// Source gives an epoch's starting tuple for the named kernel, which
// exposes maxN warps per scheduler, from the epoch's feature vector x.
// The engine asks it once per epoch, after the two feature windows, and
// clamps what it gives to p <= N <= maxN.
type Source func(kernel string, x Vector, maxN int) (n, p int)

// NewPolicy builds the Poise policy on trained weights: the GLM's
// prediction as the Source, guard on.
func NewPolicy(params config.PoiseParams, w Weights) *Policy {
	return &Policy{Params: params, Guard: true, Source: func(_ string, x Vector, maxN int) (int, int) {
		return w.PredictTuple(x, maxN)
	}}
}

// Name implements sim.Policy.
func (p *Policy) Name() string { return "Poise" }

// Displacement reports the mean absolute displacement between the
// predicted and converged tuples along each axis, and the mean
// Euclidean distance, across all inference epochs of the last run —
// the paper's Fig. 10 metric.
func (p *Policy) Displacement() (dN, dP, euclid float64, ok bool) {
	var sn, sp, se float64
	n := 0
	for _, e := range p.engines {
		sn += e.dispN
		sp += e.dispP
		se += e.dispE
		n += e.decided
	}
	if n == 0 {
		return 0, 0, 0, false
	}
	return sn / float64(n), sp / float64(n), se / float64(n), true
}

// KernelStart implements sim.Policy.
func (p *Policy) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	p.maxN = g.MaxN()
	p.engines = p.engines[:0]
	g.SetTupleAll(p.maxN, p.maxN)
	for i := 0; i < len(g.SMs); i++ {
		e := &hie{}
		p.startEpoch(g, e, i, 0)
		p.engines = append(p.engines, e)
	}
	return 1 // engines manage their own next cycles from here
}

// Step implements sim.Policy.
func (p *Policy) Step(g *sim.GPU, now int64) int64 {
	next := sim.Never
	for i, e := range p.engines {
		if now >= e.nextAt {
			p.advance(g, e, i, now)
		}
		if e.nextAt < next {
			next = e.nextAt
		}
	}
	return next
}

// startEpoch begins a new inference epoch on SM i at cycle now.
func (p *Policy) startEpoch(g *sim.GPU, e *hie, i int, now int64) {
	e.state = stBaseWarm
	e.epochEnd = now + int64(p.Params.TPeriod)
	e.nextAt = now + int64(p.Params.TWarmup)
	g.SetTuple(i, p.maxN, p.maxN)
}

// advance runs one FSM transition for SM i.
func (p *Policy) advance(g *sim.GPU, e *hie, i int, now int64) {
	s := g.SMs[i]
	switch e.state {
	case stBaseWarm, stRefWarm, stSearchWarm:
		// Each warm-up opens the sample window of the state after it:
		// a feature window, or a search probe's.
		sample := p.Params.TFeature
		if e.state == stSearchWarm {
			sample = p.Params.TSearch
		}
		e.snapA = snap(s)
		e.state++
		e.nextAt = now + int64(sample)

	case stBaseSample:
		e.base = windowFrom(e.snapA, snap(s))
		e.baseIPC = ipcSince(e.snapA, s, int64(p.Params.TFeature))
		// Compute-intensive cut-off (paper §VI-A): kernels with In above
		// Imax run at maximum warps; skip prediction and search.
		if e.base.InstrPerLoad > float64(p.Params.IMax) {
			p.enterRun(g, e, i, p.maxN, p.maxN)
			return
		}
		// Fallback guard: after two epochs whose throttled run phase
		// underperformed the baseline window, pin the kernel to maximum
		// warps (prediction is not working for it).
		if p.Guard && e.strikes >= 2 {
			p.enterRun(g, e, i, p.maxN, p.maxN)
			return
		}
		g.SetTuple(i, 1, 1)
		e.state = stRefWarm
		e.nextAt = now + int64(p.Params.TWarmup)

	case stRefSample:
		ref := windowFrom(e.snapA, snap(s))
		n, pp := p.Source(g.KernelName(), Features(e.base, ref), p.maxN)
		n = min(n, p.maxN)
		pp = min(pp, n)
		e.predN, e.predP = n, pp
		g.LogPrediction(i, n, pp)
		// Zero strides are pure prediction: the (0, 0) column of Fig. 11.
		e.search.Start(n, pp, p.Params.StrideN, p.Params.StrideP)
		p.probeOrRun(g, e, i, now)

	case stSearchSample:
		e.search.Record(ipcSince(e.snapA, s, int64(p.Params.TSearch)))
		p.probeOrRun(g, e, i, now)

	case stRun:
		if now >= e.epochEnd {
			p.scoreRunPhase(e, s, now)
			p.startEpoch(g, e, i, now)
			return
		}
		// The guard's interim check: a throttled run phase that trails
		// the baseline window after a substantial unbiased sample
		// reverts to maximum warps for the rest of the epoch.
		if !e.checked {
			e.checked = true
			if p.trails(e, s, now) {
				p.enterRun(g, e, i, p.maxN, p.maxN)
				return
			}
		}
		e.nextAt = e.epochEnd
	}
}

// trails reports whether the run phase so far measures below the
// epoch's baseline feature window, and counts a strike when it does.
func (p *Policy) trails(e *hie, s *sm.SM, now int64) bool {
	if e.baseIPC > 0 && ipcSince(e.runSnap, s, now-e.runStartAt) < e.baseIPC {
		e.strikes++
		p.fallbacks++
		return true
	}
	return false
}

// scoreRunPhase closes out an epoch's run window for the guard: a
// throttled run phase that trails earns a strike, and a healthy one
// forgives an earlier strike.
func (p *Policy) scoreRunPhase(e *hie, s *sm.SM, now int64) {
	if !p.Guard || e.runStartAt <= 0 || now <= e.runStartAt || (e.runN >= p.maxN && e.runP >= p.maxN) {
		return // off, or ran at the baseline tuple: nothing to judge
	}
	if !p.trails(e, s, now) && e.strikes > 0 {
		e.strikes--
	}
}

// enterRun pins a tuple for the rest of the epoch and opens the
// run-phase measurement window, scheduling the interim fallback check
// when the tuple is throttled.
func (p *Policy) enterRun(g *sim.GPU, e *hie, i, n, pp int) {
	g.SetTuple(i, n, pp)
	e.runN, e.runP = n, pp
	e.runSnap = snap(g.SMs[i])
	e.runStartAt = g.Now()
	e.state = stRun
	e.checked = true
	e.nextAt = e.epochEnd
	if !p.Guard || (n >= p.maxN && pp >= p.maxN) {
		return
	}
	// Schedule the interim fallback check once the run phase has had
	// time to warm the cache at the new tuple (half the epoch): early
	// windows systematically under-measure throttled tuples.
	interim := int64(p.Params.TPeriod / 2)
	if g.Now()+interim < e.epochEnd {
		e.checked = false
		e.nextAt = g.Now() + interim
	}
}

// probeOrRun steers SM i to the search's next probe and starts its
// warm-up, or pins the tuple the search converged on. Displacement
// (Fig. 10) is measured between the Source's tuple and the search's,
// before any fallback.
func (p *Policy) probeOrRun(g *sim.GPU, e *hie, i int, now int64) {
	n, pp, done := e.search.Next(p.maxN, p.Params.StrideP)
	if !done {
		g.SetTuple(i, n, pp)
		e.state = stSearchWarm
		e.nextAt = now + int64(p.Params.TWarmup)
		return
	}
	dn, dp := math.Abs(float64(n-e.predN)), math.Abs(float64(pp-e.predP))
	e.dispN += dn
	e.dispP += dp
	e.dispE += math.Sqrt(dn*dn + dp*dp)
	e.decided++
	p.enterRun(g, e, i, n, pp)
}
