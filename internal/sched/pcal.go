package sched

import (
	"math"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/trace"
)

// PCALSWL is the dynamic Priority-based Cache Allocation policy seeded
// by SWL (the paper's strongest prior-work comparison point, §VII-C):
//
//  1. Start each kernel at the SWL throttle level (n, n) found by the
//     static profiler — the paper grants PCAL this head start to remove
//     CCWS's runtime overhead from the comparison.
//  2. Search p in parallel across SMs: each SM trials a different p for
//     one sampling window; the best-performing p wins (Li et al.'s
//     per-SM parallel trial).
//  3. Hill-climb N with unit stride: sample N, then N+dir; move while
//     the neighbour improves. This is the step that is prone to the
//     local optima the paper's Fig. 2 dissects.
type PCALSWL struct {
	start TupleSource // the per-kernel SWL seed (from profiles)
	// Poise's windows, for a fair comparison: warm-up, sample (its
	// TFeature) and re-tuning period.
	warmup, sample, period int

	state   pcalState
	n, p    int
	maxN    int
	win     ipcWindow
	nextAt  int64
	curIPC  float64
	dir     int
	perSMp  []int
	epochAt int64
}

type pcalState int

const (
	pcalWarm pcalState = iota
	pcalParallelP
	pcalClimbCur
	pcalClimbNext
	pcalRun
)

// NewPCALSWL builds the policy with Poise's sampling windows: it warms
// up for TWarmup, samples for TFeature and re-tunes every TPeriod. p
// must pass Validate: a TPeriod of zero would re-tune on every wake-up.
func NewPCALSWL(start TupleSource, p config.PoiseParams) *PCALSWL {
	return &PCALSWL{start: start, warmup: p.TWarmup, sample: p.TFeature, period: p.TPeriod}
}

// Name implements sim.Policy.
func (p *PCALSWL) Name() string { return "PCAL-SWL" }

// KernelStart implements sim.Policy.
func (p *PCALSWL) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	p.maxN = g.MaxN()
	n := p.maxN
	if t, ok := p.start[k.Name]; ok {
		n = min(t[0], p.maxN)
	}
	p.n, p.p = n, n
	g.SetTupleAll(p.n, p.p)
	p.state = pcalWarm
	p.nextAt = int64(p.warmup)
	p.epochAt = int64(p.period)
	return p.nextAt
}

// Step implements sim.Policy.
func (p *PCALSWL) Step(g *sim.GPU, now int64) int64 {
	switch p.state {
	case pcalWarm:
		// Parallel p trial: spread candidate p values over the SMs.
		p.perSMp = p.perSMp[:0]
		for i := range g.SMs {
			cand := min(1+(i*(p.n-1))/max(len(g.SMs)-1, 1), p.n)
			p.perSMp = append(p.perSMp, cand)
			g.SetTuple(i, p.n, cand)
		}
		p.win = beginWindow(g, now)
		p.state = pcalParallelP
		p.nextAt = now + int64(p.sample)

	case pcalParallelP:
		per := p.win.ipcPerSM(g, now)
		best, bestIPC := p.p, math.Inf(-1)
		for i, ipc := range per {
			if ipc > bestIPC {
				bestIPC, best = ipc, p.perSMp[i]
			}
		}
		p.p = best
		g.SetTupleAll(p.n, p.p)
		p.win = beginWindow(g, now)
		p.state = pcalClimbCur
		p.nextAt = now + int64(p.warmup+p.sample)
		p.dir = +1

	case pcalClimbCur:
		p.curIPC = p.win.ipc(g, now)
		next := p.n + p.dir
		if next < 1 || next > p.maxN {
			if p.dir == 1 {
				// Try the other direction before giving up.
				p.dir = -1
				p.Step(g, now)
				return p.nextAt
			}
			p.enterRun(g, now)
			return p.nextAt
		}
		g.SetTupleAll(next, min(p.p, next))
		p.win = beginWindow(g, now)
		p.state = pcalClimbNext
		p.nextAt = now + int64(p.warmup+p.sample)

	case pcalClimbNext:
		nextIPC := p.win.ipc(g, now)
		cand := p.n + p.dir
		if nextIPC > p.curIPC {
			// Accept the move and keep climbing in this direction.
			p.n = cand
			p.p = min(p.p, p.n)
			p.curIPC = nextIPC
			p.state = pcalClimbCur
			g.SetTupleAll(p.n, p.p)
			p.Step(g, now)
			return p.nextAt
		}
		if p.dir == 1 {
			// Reverse once, re-probing from the current point.
			p.dir = -1
			g.SetTupleAll(p.n, p.p)
			p.state = pcalClimbCur
			p.win = beginWindow(g, now)
			p.nextAt = now + int64(p.sample)
			return p.nextAt
		}
		p.enterRun(g, now)

	case pcalRun:
		if now >= p.epochAt {
			// Re-tune periodically, like the dynamic scheme it is.
			p.epochAt = now + int64(p.period)
			p.state = pcalWarm
			g.SetTupleAll(p.n, p.p)
			p.nextAt = now + int64(p.warmup)
		} else {
			p.nextAt = p.epochAt
		}
	}
	return p.nextAt
}

func (p *PCALSWL) enterRun(g *sim.GPU, now int64) {
	g.SetTupleAll(p.n, p.p)
	p.state = pcalRun
	p.nextAt = p.epochAt
}
