// Package sched implements the warp-scheduling policies Poise is
// evaluated against in the paper: SWL (static warp limiting, the static
// flavour of CCWS), dynamic CCWS (victim-tag lost-locality throttling),
// PCAL-SWL (priority-based cache allocation seeded by SWL), Static-Best
// (offline-profiled optimum per kernel), random-restart stochastic
// search, and APCM-style instruction-based cache management. The
// baseline GTO and generic Fixed policies live in package sim.
package sched

import (
	"poise/internal/profile"
	"poise/internal/sim"
)

// TupleSource resolves a per-kernel warp-tuple from offline profiles.
type TupleSource map[string][2]int

// SWLFromProfiles derives the SWL policy's per-kernel throttle levels:
// the best point on the p == N diagonal of each profile (static CCWS,
// paper §VII-C).
func SWLFromProfiles(profiles map[string]*profile.Profile) TupleSource {
	t := TupleSource{}
	for name, pr := range profiles {
		best := pr.BestDiagonal()
		t[name] = [2]int{best.N, best.P}
	}
	return t
}

// BestFromProfiles derives the Static-Best policy's tuples: the global
// optimum of each profile.
func BestFromProfiles(profiles map[string]*profile.Profile) TupleSource {
	t := TupleSource{}
	for name, pr := range profiles {
		best := pr.Best()
		t[name] = [2]int{best.N, best.P}
	}
	return t
}

// SWL builds the Static Warp Limiting policy from profiled diagonals.
func SWL(profiles map[string]*profile.Profile) sim.Policy {
	return sim.Fixed{PolicyName: "SWL", PerKernel: map[string][2]int(SWLFromProfiles(profiles))}
}

// StaticBest builds the Static-Best policy from profiled optima.
func StaticBest(profiles map[string]*profile.Profile) sim.Policy {
	return sim.Fixed{PolicyName: "Static-Best", PerKernel: map[string][2]int(BestFromProfiles(profiles))}
}

// ipcWindow measures per-SM IPC over sampling windows.
type ipcWindow struct {
	startInstr []int64
	startCycle int64
}

func beginWindow(g *sim.GPU, now int64) ipcWindow {
	w := ipcWindow{startCycle: now}
	for _, s := range g.SMs {
		w.startInstr = append(w.startInstr, s.C.Instructions)
	}
	return w
}

// ipc returns the aggregate IPC since the window began.
func (w ipcWindow) ipc(g *sim.GPU, now int64) float64 {
	if now <= w.startCycle {
		return 0
	}
	var d int64
	for i, s := range g.SMs {
		d += s.C.Instructions - w.startInstr[i]
	}
	return float64(d) / float64(now-w.startCycle)
}

// ipcPerSM returns each SM's IPC since the window began.
func (w ipcWindow) ipcPerSM(g *sim.GPU, now int64) []float64 {
	out := make([]float64, len(g.SMs))
	if now <= w.startCycle {
		return out
	}
	for i, s := range g.SMs {
		out[i] = float64(s.C.Instructions-w.startInstr[i]) / float64(now-w.startCycle)
	}
	return out
}
