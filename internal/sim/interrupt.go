package sim

import (
	"errors"
	"sync/atomic"
)

// ErrInterrupted is returned by Run (and the workload runners) when an
// InterruptCtl fired. The GPU's state is left exactly as of the first
// unvisited cycle — spans settled, counters dense-identical — so the
// caller can snapshot it (SnapshotKernel, Checkpoint) and a restored
// run finishes bit-identical to an uninterrupted one.
var ErrInterrupted = errors.New("sim: run interrupted")

// InterruptCtl asks a running simulation to stop at a safe point. Two
// triggers compose:
//
//   - AtCycle, when > 0, interrupts deterministically at the first
//     visited cycle >= AtCycle — the reproducible trigger the identity
//     tests and the CI kill-mid-run round trip use.
//   - Trigger may be called from any goroutine (a SIGTERM handler, a
//     lease-loss watchdog) and interrupts at the next visited cycle.
//
// Only the ready-queue engine honours interrupts; Run rejects an
// InterruptCtl combined with EngineDense. A fired control stays fired:
// reuse across a resumed run would interrupt it again immediately, so
// resume with a fresh control (or nil).
type InterruptCtl struct {
	// AtCycle, when positive, is the deterministic trigger cycle.
	AtCycle int64

	flag atomic.Bool
}

// Trigger requests an interrupt at the next visited cycle. Safe for
// concurrent use.
func (ic *InterruptCtl) Trigger() { ic.flag.Store(true) }

// due reports whether the run should stop before visiting cycle now.
// nil receivers are valid (no interrupt configured).
func (ic *InterruptCtl) due(now int64) bool {
	if ic == nil {
		return false
	}
	if ic.AtCycle > 0 && now >= ic.AtCycle {
		return true
	}
	return ic.flag.Load()
}
