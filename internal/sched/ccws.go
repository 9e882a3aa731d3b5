package sched

import (
	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/trace"
)

// CCWS is the dynamic Cache-Conscious Wavefront Scheduling policy
// (Rogers et al., MICRO 2012), reimplemented at the fidelity the paper
// compares against: per-warp victim tag arrays detect lost intra-warp
// locality, and an aggregate lost-locality score throttles the number
// of schedulable warps (p stays coupled to N, the diagonal of the
// solution space). The paper's evaluation uses the static flavour
// (SWL); the dynamic version is provided for completeness and for the
// pitfalls analysis of §III.
type CCWS struct {
	sample int // the throttle-decision period: Poise's TFeature

	n      int
	maxN   int
	nextAt int64
}

// The original proposal's parameters.
const (
	// ccwsVictimEntries sizes the per-warp victim tag arrays.
	ccwsVictimEntries = 8
	// ccwsRaise and ccwsLower bound the lost-locality score (per
	// kilo-cycle, per SM) that triggers throttling up or down.
	ccwsRaise = 8.0
	ccwsLower = 1.0
)

// NewCCWS returns a CCWS policy with the canonical parameters, deciding
// once per Poise feature window.
func NewCCWS(p config.PoiseParams) *CCWS { return &CCWS{sample: p.TFeature} }

// Name implements sim.Policy.
func (c *CCWS) Name() string { return "CCWS" }

// KernelStart implements sim.Policy.
func (c *CCWS) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	c.maxN = g.MaxN()
	c.n = c.maxN
	g.SetTupleAll(c.n, c.n)
	for _, s := range g.SMs {
		s.L1.EnableVictimTags(ccwsVictimEntries, g.Cfg.MaxWarpsPerSM())
		s.L1.Victim().Drain()
	}
	c.nextAt = int64(c.sample)
	return c.nextAt
}

// Step implements sim.Policy.
func (c *CCWS) Step(g *sim.GPU, now int64) int64 {
	// Aggregate lost-locality detections across SMs for this window.
	var lost int64
	for _, s := range g.SMs {
		for _, v := range s.L1.Victim().Drain() {
			lost += v
		}
	}
	perKCycle := float64(lost) / float64(len(g.SMs)) / (float64(c.sample) / 1000)
	switch {
	case perKCycle > ccwsRaise && c.n > 1:
		c.n--
	case perKCycle < ccwsLower && c.n < c.maxN:
		c.n++
	}
	g.SetTupleAll(c.n, c.n)
	c.nextAt = now + int64(c.sample)
	return c.nextAt
}
