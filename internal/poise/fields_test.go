package poise

import (
	"testing"

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
	snaptest.Account(t, src, dst, (*Policy).walk, stateFields)
}
