package sched

import (
	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/stats"
	"poise/internal/trace"
)

// RandomRestart is the stochastic-search alternative evaluated in the
// paper's §VII-J: pick a random warp-tuple, gradient-ascend locally
// (Poise's HIE search, a Search), run until the epoch ends, then restart
// from a new random tuple. It avoids local optima in the limit but has
// no good starting point, so convergence is slow — the behaviour the
// paper contrasts Poise against. Results should be averaged over
// several seeds (the paper uses 20 runs).
type RandomRestart struct {
	seed int64
	// Poise's search: warm-up, probe sample (its TSearch), restart
	// period and the climb's initial strides.
	warmup, sample, period int
	strideN, strideP       int

	rng      *stats.RNG
	maxN     int
	search   Search
	win      ipcWindow
	state    rrState
	nextAt   int64
	epochEnd int64
}

type rrState int

const (
	rrProbeWarm rrState = iota
	rrProbeSample
	rrRun
)

// NewRandomRestart builds the policy with Poise's search: it warms up
// for TWarmup, samples each probe for TSearch, restarts every TPeriod
// and climbs with strides StrideN and StrideP. p must pass Validate.
func NewRandomRestart(seed int64, p config.PoiseParams) *RandomRestart {
	return &RandomRestart{
		seed: seed, warmup: p.TWarmup, sample: p.TSearch, period: p.TPeriod,
		strideN: p.StrideN, strideP: p.StrideP,
	}
}

// Name implements sim.Policy.
func (r *RandomRestart) Name() string { return "Random-restart" }

// KernelStart implements sim.Policy.
func (r *RandomRestart) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	r.rng = stats.NewRNG(r.seed ^ int64(len(k.Name))*7919)
	r.maxN = g.MaxN()
	r.restart(g, 0)
	return r.nextAt
}

// restart draws a fresh random tuple and begins a local search.
func (r *RandomRestart) restart(g *sim.GPU, now int64) {
	n := 1 + r.rng.Intn(r.maxN)
	r.search.Start(n, 1+r.rng.Intn(n), r.strideN, r.strideP)
	r.epochEnd = now + int64(r.period)
	g.SetTupleAll(r.search.N, r.search.P)
	r.probeOrRun(g, now)
}

// Step implements sim.Policy.
func (r *RandomRestart) Step(g *sim.GPU, now int64) int64 {
	switch r.state {
	case rrProbeWarm:
		r.win = beginWindow(g, now)
		r.state = rrProbeSample
		r.nextAt = now + int64(r.sample)
	case rrProbeSample:
		r.search.Record(r.win.ipc(g, now))
		r.probeOrRun(g, now)
	case rrRun:
		if now >= r.epochEnd {
			r.restart(g, now)
		} else {
			r.nextAt = r.epochEnd
		}
	}
	return r.nextAt
}

// probeOrRun sets every SM to the search's next probe and starts its
// warm-up, or to the converged tuple for the rest of the epoch.
func (r *RandomRestart) probeOrRun(g *sim.GPU, now int64) {
	n, p, done := r.search.Next(r.maxN, r.strideP)
	g.SetTupleAll(n, p)
	if done {
		r.state, r.nextAt = rrRun, r.epochEnd
		return
	}
	r.state, r.nextAt = rrProbeWarm, now+int64(r.warmup)
}
