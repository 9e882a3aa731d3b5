package sched

import (
	"testing"

	"poise/internal/snap"
	"poise/internal/snap/snaptest"
	"poise/internal/stats"
)

// stateFields names every field of the stateful policies that a
// snapshot does not carry, and why (see sm's list): all of them are
// constructor parameters.
var stateFields = map[string]string{
	"CCWS.VictimEntriesPerWarp": "config",
	"CCWS.TSample":              "config",
	"CCWS.RaiseThreshold":       "config",
	"CCWS.LowerThreshold":       "config",
	"APCM.TSample":              "config",
	"APCM.StreamHitMax":         "config",
	"APCM.MinLoads":             "config",
	"PCALSWL.Start":             "config",
	"PCALSWL.TWarmup":           "config",
	"PCALSWL.TSample":           "config",
	"PCALSWL.period":            "config",
	"RandomRestart.Seed":        "config",
	"RandomRestart.TWarmup":     "config",
	"RandomRestart.TSample":     "config",
	"RandomRestart.Period":      "config",
	"RandomRestart.StrideN":     "config",
	"RandomRestart.StrideP":     "config",
}

func account[T any](t *testing.T, src, dst *T, walk func(*T, snap.Walk)) {
	t.Helper()
	snaptest.Fill(src, stateFields)
	snaptest.Account(t, src, dst, walk, stateFields)
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	account(t, NewCCWS(2000), NewCCWS(2000), (*CCWS).walk)
	account(t, NewAPCM(3000), NewAPCM(3000), (*APCM).walk)
	account(t, NewPCALSWL(TupleSource{}, 100, 500, 5000), NewPCALSWL(TupleSource{}, 100, 500, 5000), (*PCALSWL).walk)
	rr := NewRandomRestart(7, 100, 400, 4000, 2, 4)
	rr.rng = stats.NewRNG(5) // another package's state: a stream that is not the restoring side's
	account(t, rr, NewRandomRestart(7, 100, 400, 4000, 2, 4), (*RandomRestart).walk)
}
