package sched

import (
	"fmt"

	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/stats"
)

// Checkpoint codecs for the adaptive policies (sim.StatefulPolicy), a
// snap.Walk per policy. Only mutable trajectory state crosses the wire: the resuming
// side rebuilds each policy with its original constructor parameters,
// and the codec restores where in its decision process the policy was,
// checking it against the GPU restored beside it: what Step indexes
// per SM or per PC must have the GPU's shape.
// Deterministic encodings matter — the chaos tests compare checkpoint
// bytes across processes — so map-backed state is written in sorted
// key order (snap.IntFloats).

const (
	maxSMsState     = 1 << 12
	maxPCsState     = 1 << 20
	maxMeasureState = 1 << 12
)

// walk lists an in-flight measurement window.
func (win *ipcWindow) walk(k snap.Walk) {
	k.Varint(&win.startCycle)
	snap.Slice(k, &win.startInstr, maxSMsState, snap.Walk.Varint)
}

// perSM checks that a table indexed by SM has an entry per SM of g. One
// the policy rebuilds before it next reads it (open false) may also be
// empty, as it is before the policy first filled it.
func perSM(what string, n int, g *sim.GPU, open bool) error {
	if n != len(g.SMs) && (open || n != 0) {
		return fmt.Errorf("sched: %s has %d entries, GPU has %d SMs", what, n, len(g.SMs))
	}
	return nil
}

// WalkState implements sim.StatefulPolicy. Step drains every SM's victim
// tags, so a walk in requires them attached.
func (c *CCWS) WalkState(k snap.Walk, g *sim.GPU) {
	k.Int(&c.n)
	k.Int(&c.maxN)
	k.Varint(&c.nextAt)
	k.Check(func() error {
		for i, s := range g.SMs {
			if s.L1.Victim() == nil {
				return fmt.Errorf("sched: CCWS state for SM %d, whose L1 has no victim tags", i)
			}
		}
		return nil
	})
}

// WalkState implements sim.StatefulPolicy. Step reads a PC table per SM
// the length of that SM's, and sets its bypass marks.
func (a *APCM) WalkState(k snap.Walk, g *sim.GPU) {
	k.Varint(&a.nextAt)
	n := k.Count(len(a.prevLoads), maxSMsState)
	if k.Reader() != nil {
		a.prevLoads, a.prevHits = make([][]int64, n), make([][]int64, n)
	}
	for i := range a.prevLoads {
		snap.Pairs(k, &a.prevLoads[i], &a.prevHits[i], maxPCsState)
	}
	k.Check(func() error {
		if err := perSM("APCM PC table list", len(a.prevLoads), g, true); err != nil {
			return err
		}
		for i, s := range g.SMs {
			if len(a.prevLoads[i]) != len(s.PCLoads) || len(s.BypassPC) != len(s.PCLoads) {
				return fmt.Errorf("sched: APCM has %d PCs and %d bypass marks for SM %d, which has %d PCs",
					len(a.prevLoads[i]), len(s.BypassPC), i, len(s.PCLoads))
			}
		}
		return nil
	})
}

// WalkState implements sim.StatefulPolicy. The IPC window is read in the
// three search states, the per-SM tuple list in the parallel one.
func (p *PCALSWL) WalkState(k snap.Walk, g *sim.GPU) {
	k.Int((*int)(&p.state))
	k.Int(&p.n)
	k.Int(&p.p)
	k.Int(&p.maxN)
	p.win.walk(k)
	k.Varint(&p.nextAt)
	k.Float64(&p.curIPC)
	k.Int(&p.dir)
	snap.Slice(k, &p.perSMp, maxSMsState, snap.Walk.Int)
	k.Varint(&p.epochAt)
	k.Check(func() error {
		if p.state < pcalWarm || p.state > pcalRun {
			return fmt.Errorf("sched: PCAL state %d out of range", p.state)
		}
		if err := perSM("PCAL IPC window", len(p.win.startInstr), g, p.state != pcalWarm && p.state != pcalRun); err != nil {
			return err
		}
		return perSM("PCAL per-SM tuple list", len(p.perSMp), g, p.state == pcalParallelP)
	})
}

// WalkState implements sim.StatefulPolicy. The IPC window is read while
// a probe samples, and a restart draws a tuple below maxN.
func (r *RandomRestart) WalkState(k snap.Walk, g *sim.GPU) {
	if r.rng == nil {
		// KernelStart has not run in this process; the seed mix is
		// irrelevant because SetState overwrites it.
		r.rng = stats.NewRNG(0)
	}
	s := r.rng.State()
	for i := range s {
		k.Uvarint(&s[i])
	}
	r.rng.SetState(s)
	k.Int(&r.maxN)
	k.Int(&r.search.N)
	k.Int(&r.search.P)
	onN := !r.search.OnP
	k.Bool(&onN)
	r.search.OnP = !onN
	k.Int(&r.search.Stride)
	snap.IntFloats(k, &r.search.Measured, maxMeasureState)
	k.Int(&r.search.Probe)
	r.win.walk(k)
	k.Int((*int)(&r.state))
	k.Varint(&r.nextAt)
	k.Varint(&r.epochEnd)
	k.Check(func() error {
		if r.state < rrProbeWarm || r.state > rrRun {
			return fmt.Errorf("sched: random-restart state %d out of range", r.state)
		}
		if r.maxN < 1 {
			return fmt.Errorf("sched: random-restart maximum N %d out of range", r.maxN)
		}
		return perSM("random-restart IPC window", len(r.win.startInstr), g, r.state == rrProbeSample)
	})
}

var (
	_ sim.StatefulPolicy = (*CCWS)(nil)
	_ sim.StatefulPolicy = (*APCM)(nil)
	_ sim.StatefulPolicy = (*PCALSWL)(nil)
	_ sim.StatefulPolicy = (*RandomRestart)(nil)
)
