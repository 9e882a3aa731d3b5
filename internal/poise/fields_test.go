package poise

import (
	"testing"

	"poise/internal/sim"
	snapio "poise/internal/snap"
	"poise/internal/snap/snaptest"
	"poise/internal/testutil"
)

// stateFields names every field of the policy and its per-SM engines
// that a snapshot does not carry, and why (see sm's list). Every field
// of hie is a wire field: the paper's 7-state FSM is all state.
var stateFields = map[string]string{
	"Policy.Params":     "config",
	"Policy.Weights":    "config",
	"Policy.NoFallback": "config",
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	w, _ := DefaultWeights()
	src, dst := NewPolicy(testutil.TinyParams(), w), NewPolicy(testutil.TinyParams(), w)
	snaptest.Fill(src, stateFields)
	for _, e := range src.engines {
		e.state, e.axis = stRun, axisP // what the walk's check accepts
	}
	// Fill makes two engines: a GPU of two SMs.
	g, err := sim.New(testutil.TinyConfig())
	if err != nil || len(g.SMs) != len(src.engines) {
		t.Fatalf("New: %v, %d SMs for %d engines", err, len(g.SMs), len(src.engines))
	}
	snaptest.Account(t, src, dst, func(p *Policy, k snapio.Walk) { p.WalkState(k, g) }, stateFields)
}

// TestWalkStateRejectsWhatStepCannotRun: an engine in no FSM state or
// searching along no axis decodes to an error. The second used to
// decode cleanly and recurse in searchNext until the stack ran out.
func TestWalkStateRejectsWhatStepCannotRun(t *testing.T) {
	w, _ := DefaultWeights()
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(e *hie)
	}{
		{"none", func(*hie) {}},
		{"state", func(e *hie) { e.state = stRun + 1 }},
		{"axis", func(e *hie) { e.axis = axisP + 1 }},
	} {
		src := NewPolicy(testutil.TinyParams(), w)
		src.KernelStart(g, testutil.ThrashKernel("k", 64, 40, 4))
		tc.mutate(src.engines[1])
		data := snaptest.Out(func(k snapio.Walk) { src.WalkState(k, g) })
		dst := NewPolicy(testutil.TinyParams(), w)
		err := snaptest.In(func(k snapio.Walk) { dst.WalkState(k, g) }, data)
		if (err == nil) != (tc.name == "none") {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
