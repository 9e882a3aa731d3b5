package noc

import (
	"testing"

	"poise/internal/config"
	"poise/internal/snap/snaptest"
)

// stateFields names every Crossbar field a snapshot does not carry, and
// why (see sm's list).
var stateFields = map[string]string{
	"Crossbar.latency":   "config",
	"Crossbar.flitCycle": "config",
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	cfg := config.Default().Scale(2)
	src, dst := New(cfg), New(cfg)
	snaptest.Fill(src, stateFields)
	snaptest.Account(t, src, dst, (*Crossbar).Walk, stateFields)
}
