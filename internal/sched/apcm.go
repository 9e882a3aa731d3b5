package sched

import (
	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/trace"
)

// APCM is the access-pattern-aware cache management comparison point of
// paper §VII-J (Koo et al., ISCA 2017), reimplemented at the fidelity
// the comparison needs: per-load-instruction locality monitoring that
// classifies streaming PCs and makes their misses bypass the L1
// (protecting the lines of high-reuse instructions from pollution).
// TLP is left at maximum — the paper's point is precisely that
// bypassing schemes lack the multithreading knob, so Poise wins by
// also steering N.
type APCM struct {
	sample int // the classification period: Poise's TFeature

	nextAt    int64
	prevLoads [][]int64
	prevHits  [][]int64
}

// The canonical classification thresholds.
const (
	// apcmStreamHitMax classifies a PC as streaming when its window hit
	// rate stays at or below this value.
	apcmStreamHitMax = 0.05
	// apcmMinLoads is the evidence threshold before classifying a PC.
	apcmMinLoads = 64
)

// NewAPCM builds the policy with the canonical thresholds, classifying
// once per Poise feature window.
func NewAPCM(p config.PoiseParams) *APCM { return &APCM{sample: p.TFeature} }

// Name implements sim.Policy.
func (a *APCM) Name() string { return "APCM" }

// KernelStart implements sim.Policy.
func (a *APCM) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	max := g.MaxN()
	g.SetTupleAll(max, max)
	a.prevLoads = make([][]int64, len(g.SMs))
	a.prevHits = make([][]int64, len(g.SMs))
	for i, s := range g.SMs {
		a.prevLoads[i] = make([]int64, len(s.PCLoads))
		a.prevHits[i] = make([]int64, len(s.PCHits))
		s.BypassPC = make([]bool, len(s.PCLoads))
	}
	a.nextAt = int64(a.sample)
	return a.nextAt
}

// Step implements sim.Policy: classify each load PC from its
// per-window hit rate and set the bypass filters.
func (a *APCM) Step(g *sim.GPU, now int64) int64 {
	for i, s := range g.SMs {
		for pc := range s.PCLoads {
			loads := s.PCLoads[pc] - a.prevLoads[i][pc]
			hits := s.PCHits[pc] - a.prevHits[i][pc]
			a.prevLoads[i][pc] = s.PCLoads[pc]
			a.prevHits[i][pc] = s.PCHits[pc]
			if loads < apcmMinLoads {
				continue // not enough evidence this window
			}
			hr := float64(hits) / float64(loads)
			s.BypassPC[pc] = hr <= apcmStreamHitMax
		}
	}
	a.nextAt = now + int64(a.sample)
	return a.nextAt
}
