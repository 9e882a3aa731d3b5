package sched

import (
	"testing"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/snap/snaptest"
	"poise/internal/stats"
	"poise/internal/testutil"
)

// stateFields names every field of the stateful policies that a
// snapshot does not carry, and why (see sm's list): all of them are
// constructor parameters.
var stateFields = map[string]string{
	"CCWS.sample":           "config",
	"APCM.sample":           "config",
	"PCALSWL.start":         "config",
	"PCALSWL.warmup":        "config",
	"PCALSWL.sample":        "config",
	"PCALSWL.period":        "config",
	"RandomRestart.seed":    "config",
	"RandomRestart.warmup":  "config",
	"RandomRestart.sample":  "config",
	"RandomRestart.period":  "config",
	"RandomRestart.strideN": "config",
	"RandomRestart.strideP": "config",
}

// account fills src, lets fix put what the walk's checks read in range,
// and walks it out and into dst, both restoring onto g.
func account[T any](t *testing.T, g *sim.GPU, src, dst *T, fix func(*T)) {
	t.Helper()
	snaptest.Fill(src, stateFields)
	if fix != nil {
		fix(src)
	}
	snaptest.Account(t, src, dst, func(p *T, k snap.Walk) { any(p).(sim.StatefulPolicy).WalkState(k, g) }, stateFields)
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	// Two SMs of two PCs each, with bypass marks and victim tags: the
	// shape Fill gives the policies' tables.
	g, err := sim.New(testutil.TinyConfig())
	if err != nil || len(g.SMs) != 2 {
		t.Fatalf("New: %v, %d SMs", err, len(g.SMs))
	}
	for _, s := range g.SMs {
		s.PCLoads, s.PCHits, s.BypassPC = make([]int64, 2), make([]int64, 2), make([]bool, 2)
		s.L1.EnableVictimTags(2, 2)
	}
	account(t, g, NewCCWS(config.PoiseParams{TFeature: 2000}), NewCCWS(config.PoiseParams{TFeature: 2000}), nil)
	account(t, g, NewAPCM(config.PoiseParams{TFeature: 3000}), NewAPCM(config.PoiseParams{TFeature: 3000}), nil)
	account(t, g, NewPCALSWL(TupleSource{}, pcalParams), NewPCALSWL(TupleSource{}, pcalParams),
		func(p *PCALSWL) { p.state = pcalParallelP }) // reads the window and the per-SM list
	rr := NewRandomRestart(7, rrParams)
	rr.rng = stats.NewRNG(5) // another package's state: a stream that is not the restoring side's
	account(t, g, rr, NewRandomRestart(7, rrParams),
		func(r *RandomRestart) { r.state = rrProbeSample }) // reads the window
}

// TestWalkStateRejectsWhatStepCannotRun: a policy in no FSM state, or a
// random restart with no tuple to draw, decodes to an error.
func TestWalkStateRejectsWhatStepCannotRun(t *testing.T) {
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcal := func() sim.StatefulPolicy { return NewPCALSWL(TupleSource{}, pcalParams) }
	rr := func() sim.StatefulPolicy { return NewRandomRestart(7, rrParams) }
	for _, tc := range []struct {
		name   string
		mk     func() sim.StatefulPolicy
		mutate func(p sim.StatefulPolicy)
	}{
		{"PCAL-SWL as started", pcal, nil},
		{"PCAL-SWL state", pcal, func(p sim.StatefulPolicy) { p.(*PCALSWL).state = pcalRun + 1 }},
		{"random-restart as started", rr, nil},
		{"random-restart state", rr, func(p sim.StatefulPolicy) { p.(*RandomRestart).state = rrRun + 1 }},
		{"random-restart maximum N", rr, func(p sim.StatefulPolicy) { p.(*RandomRestart).maxN = 0 }},
	} {
		src := tc.mk()
		src.KernelStart(g, testutil.ThrashKernel("k", 64, 40, 4))
		if tc.mutate != nil {
			tc.mutate(src)
		}
		data := snaptest.Out(func(k snap.Walk) { src.WalkState(k, g) })
		err := snaptest.In(func(k snap.Walk) { tc.mk().WalkState(k, g) }, data)
		if (err == nil) != (tc.mutate == nil) {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
