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
// and the codec restores where in its decision process the policy was.
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

func (c *CCWS) walk(k snap.Walk) {
	k.Int(&c.n)
	k.Int(&c.maxN)
	k.Varint(&c.nextAt)
}

// EncodePolicyState implements sim.StatefulPolicy.
func (c *CCWS) EncodePolicyState(w *snap.Writer) { c.walk(snap.Out(w)) }

// DecodePolicyState implements sim.StatefulPolicy.
func (c *CCWS) DecodePolicyState(r *snap.Reader) error { return snap.Restore(r, c.walk, nil) }

func (a *APCM) walk(k snap.Walk) {
	k.Varint(&a.nextAt)
	n := k.Count(len(a.prevLoads), maxSMsState)
	if k.Reader() != nil {
		a.prevLoads, a.prevHits = make([][]int64, n), make([][]int64, n)
	}
	for i := range a.prevLoads {
		snap.Pairs(k, &a.prevLoads[i], &a.prevHits[i], maxPCsState)
	}
}

// EncodePolicyState implements sim.StatefulPolicy.
func (a *APCM) EncodePolicyState(w *snap.Writer) { a.walk(snap.Out(w)) }

// DecodePolicyState implements sim.StatefulPolicy.
func (a *APCM) DecodePolicyState(r *snap.Reader) error { return snap.Restore(r, a.walk, nil) }

func (p *PCALSWL) walk(k snap.Walk) {
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
}

// EncodePolicyState implements sim.StatefulPolicy.
func (p *PCALSWL) EncodePolicyState(w *snap.Writer) { p.walk(snap.Out(w)) }

// DecodePolicyState implements sim.StatefulPolicy.
func (p *PCALSWL) DecodePolicyState(r *snap.Reader) error {
	if p.walk(snap.In(r)); r.Err() == nil && (p.state < pcalWarm || p.state > pcalRun) {
		return fmt.Errorf("sched: PCAL state %d out of range", p.state)
	}
	return r.Err()
}

func (r *RandomRestart) walk(k snap.Walk) {
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
	k.Int(&r.n)
	k.Int(&r.p)
	k.Bool(&r.axisN)
	k.Int(&r.stride)
	snap.IntFloats(k, &r.measured, maxMeasureState)
	k.Int(&r.probe)
	r.win.walk(k)
	k.Int((*int)(&r.state))
	k.Varint(&r.nextAt)
	k.Varint(&r.epochEnd)
}

// EncodePolicyState implements sim.StatefulPolicy.
func (r *RandomRestart) EncodePolicyState(w *snap.Writer) { r.walk(snap.Out(w)) }

// DecodePolicyState implements sim.StatefulPolicy.
func (r *RandomRestart) DecodePolicyState(rd *snap.Reader) error {
	if r.walk(snap.In(rd)); rd.Err() == nil && (r.state < rrProbeWarm || r.state > rrRun) {
		return fmt.Errorf("sched: random-restart state %d out of range", r.state)
	}
	return rd.Err()
}

var (
	_ sim.StatefulPolicy = (*CCWS)(nil)
	_ sim.StatefulPolicy = (*APCM)(nil)
	_ sim.StatefulPolicy = (*PCALSWL)(nil)
	_ sim.StatefulPolicy = (*RandomRestart)(nil)
)
