package poise

import (
	"fmt"

	"poise/internal/sim"
	snapio "poise/internal/snap"
)

// Checkpoint codec for the Poise policy (sim.StatefulPolicy): the
// per-SM HIE FSMs — phase, windows, search trajectory, fallback
// strikes, displacement accounting — plus the kernel-level fallback
// counter. Parameters
// and weights are construction-time inputs and do not cross the wire.
// Map-backed search caches are written in sorted key order so
// checkpoint bytes are deterministic across processes.

const (
	maxEnginesState = 1 << 12
	maxMeasured     = 1 << 12
)

func (win *Window) walk(k snapio.Walk) {
	k.Float64(&win.HitRate)
	k.Float64(&win.IntraRate)
	k.Float64(&win.AML)
	k.Float64(&win.InstrPerLoad)
}

func (s *snapshot) walk(k snapio.Walk) {
	s.l1.Walk(k)
	s.c.Walk(k)
}

// walkAxis walks the search axis as the int this codec has always
// written, 0 for N and 1 for p, and refuses any other.
func walkAxis(k snapio.Walk, onP *bool) {
	axis := 0
	if *onP {
		axis = 1
	}
	k.Int(&axis)
	if axis != 0 && axis != 1 {
		k.Fail(fmt.Errorf("poise: HIE search axis %d out of range", axis))
	}
	*onP = axis == 1
}

func (e *hie) walk(k snapio.Walk) {
	k.Int((*int)(&e.state))
	k.Varint(&e.nextAt)
	k.Varint(&e.epochEnd)
	e.base.walk(k)
	k.Float64(&e.baseIPC)
	e.snapA.walk(k)
	walkAxis(k, &e.search.OnP)
	k.Int(&e.search.N)
	k.Int(&e.search.P)
	k.Int(&e.search.Stride)
	k.Int(&e.search.Probe)
	snapio.IntFloats(k, &e.search.Measured, maxMeasured)
	k.Int(&e.predN)
	k.Int(&e.predP)
	e.runSnap.walk(k)
	k.Varint(&e.runStartAt)
	k.Int(&e.runN)
	k.Int(&e.runP)
	k.Int(&e.strikes)
	k.Bool(&e.checked)
	k.Float64(&e.dispN)
	k.Float64(&e.dispP)
	k.Float64(&e.dispE)
	k.Int(&e.decided)
}

// WalkState implements sim.StatefulPolicy. A walk in checks every
// engine's FSM state and search axis (walkAxis), and that g has one SM
// per engine (Step advances engine i on SM i).
func (p *Policy) WalkState(k snapio.Walk, g *sim.GPU) {
	k.Int(&p.maxN)
	k.Int(&p.fallbacks)
	snapio.Slice(k, &p.engines, maxEnginesState, func(k snapio.Walk, e **hie) {
		if *e == nil {
			*e = &hie{}
		}
		(*e).walk(k)
	})
	k.Check(func() error {
		for _, e := range p.engines {
			if e.state < stBaseWarm || e.state > stRun {
				return fmt.Errorf("poise: HIE state %d out of range", e.state)
			}
		}
		if len(p.engines) != len(g.SMs) {
			return fmt.Errorf("poise: snapshot has %d HIE engines, GPU has %d SMs", len(p.engines), len(g.SMs))
		}
		return nil
	})
}

var _ sim.StatefulPolicy = (*Policy)(nil)
