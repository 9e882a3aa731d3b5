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
	"Policy.Params": "config",
	"Policy.Source": "config",
	"Policy.Guard":  "config",
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	w, _ := DefaultWeights()
	src, dst := NewPolicy(testutil.TinyParams(), w), NewPolicy(testutil.TinyParams(), w)
	snaptest.Fill(src, stateFields)
	for _, e := range src.engines {
		e.state = stRun // what the walk's check accepts
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
// decode cleanly and recurse in the search until the stack ran out. An
// axis is a bool in memory, so its case is the walk of an engine on p
// with the one byte that differs from an engine on N made a 2.
func TestWalkStateRejectsWhatStepCannotRun(t *testing.T) {
	w, _ := DefaultWeights()
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := func(mutate func(e *hie)) []byte {
		src := NewPolicy(testutil.TinyParams(), w)
		src.KernelStart(g, testutil.ThrashKernel("k", 64, 40, 4))
		mutate(src.engines[1])
		return snaptest.Out(func(k snapio.Walk) { src.WalkState(k, g) })
	}
	onN, axis := out(func(*hie) {}), out(func(e *hie) { e.search.OnP = true })
	var at []int
	for i := range axis {
		if axis[i] != onN[i] {
			at = append(at, i)
		}
	}
	if len(at) != 1 || axis[at[0]] != 2 {
		t.Fatalf("the axes walk out to bytes differing at %v", at)
	}
	axis[at[0]] = 4 // the varint of 2
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"none", onN},
		{"state", out(func(e *hie) { e.state = stRun + 1 })},
		{"axis", axis},
	} {
		dst := NewPolicy(testutil.TinyParams(), w)
		err := snaptest.In(func(k snapio.Walk) { dst.WalkState(k, g) }, tc.data)
		if (err == nil) != (tc.name == "none") {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
