package dram

import (
	"testing"

	"poise/internal/config"
	"poise/internal/snap/snaptest"
)

// stateFields names every DRAM field a snapshot does not carry, and why
// (see sm's list).
var stateFields = map[string]string{
	"DRAM.latency": "config",
	"DRAM.service": "config",
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	cfg := config.Default().Scale(2)
	src, dst := New(cfg), New(cfg)
	snaptest.Fill(src, stateFields)
	snaptest.Account(t, src, dst, (*DRAM).Walk, stateFields)
}
