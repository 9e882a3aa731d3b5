package sm

import (
	"testing"

	"poise/internal/cache"
	"poise/internal/config"
	"poise/internal/snap/snaptest"
)

// stateFields names every field of this package's serialised structs
// that a snapshot does not carry, and why. A struct that gains a field
// fails TestEveryFieldIsAccountedFor until the field is walked or named
// here; docs/ARCHITECTURE.md's derived-state table lists the derived
// ones (TestDerivedStateTableMatchesTheLists).
var stateFields = map[string]string{
	"Warp.clearAt": "derived: Warp.rebuild",
	"Warp.nextDep": "derived: Warp.rebuild",
	"Scheduler.ID": "config",
	"SM.ID":        "config",
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	t.Run("Counters", func(t *testing.T) {
		src, dst := &Counters{}, &Counters{}
		snaptest.Fill(src, stateFields)
		snaptest.Account(t, src, dst, (*Counters).Walk, stateFields)
	})
	t.Run("Warp", func(t *testing.T) {
		src, dst := &Warp{}, &Warp{}
		snaptest.Fill(src, stateFields)
		snaptest.Account(t, src, dst, (*Warp).walk, stateFields)
	})
	t.Run("Scheduler", func(t *testing.T) {
		src, dst := NewScheduler(0, 3), NewScheduler(0, 3)
		snaptest.Fill(src, stateFields)
		snaptest.Account(t, src, dst, (*Scheduler).walk, stateFields)
	})
	t.Run("SM", func(t *testing.T) {
		cfg := config.Default().Scale(2)
		src, _ := NewSM(1, cfg)
		dst, _ := NewSM(1, cfg)
		snaptest.Fill(src, stateFields)
		for _, sch := range src.Scheds {
			// What the walk's check accepts: every filled slot is live and
			// older than the next, so the age order lists them all.
			sch.ageOrder = sch.ageOrder[:0]
			for i := range sch.Slots {
				sch.ageOrder = append(sch.ageOrder, i)
			}
			sch.current, sch.n, sch.p = 0, 2, 1
		}
		// The cache package's own state, built through its API.
		src.L1.Fill(0x1000, 1, 2, true)
		src.MSHR.Allocate(7, 9, true, 1, 2, cache.Waiter{Sched: 1, Slot: 2, Token: 3, Warp: 4})
		snaptest.Account(t, src, dst, (*SM).Walk, stateFields)
	})
}

// TestResetReachesEveryField: Reset returns every field that is not
// configuration to what the constructor built, whatever it held.
func TestResetReachesEveryField(t *testing.T) {
	t.Run("Scheduler", func(t *testing.T) {
		snaptest.CheckReset(t, NewScheduler(0, 3), NewScheduler(0, 3), (*Scheduler).Reset, stateFields)
	})
	t.Run("SM", func(t *testing.T) {
		cfg := config.Default().Scale(2)
		s, _ := NewSM(1, cfg)
		fresh, _ := NewSM(1, cfg)
		// The cache package's own state, built through its API.
		s.L1.Fill(0x1000, 1, 2, true)
		s.MSHR.Allocate(7, 9, true, 1, 2, cache.Waiter{Sched: 1, Slot: 2, Token: 3, Warp: 4})
		snaptest.CheckReset(t, s, fresh, (*SM).Reset, stateFields)
	})
}
