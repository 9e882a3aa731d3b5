package sm

import (
	"fmt"

	"poise/internal/cache"
	"poise/internal/snap"
)

// Checkpoint codecs for the SM layer, a snap.Walk per struct. Structure
// (slot counts, scheduler counts, L1 geometry) comes from the
// configuration the restoring GPU was built with; only mutable state
// crosses the wire, and the walk verifies the shapes line up.

// Bounds on what a decode will size from a payload.
const (
	maxBody    = 1 << 20 // per-kernel PC table
	maxPending = 1 << 16 // one warp's outstanding-load scoreboard
	maxReplayQ = 1 << 20 // SM replay queue (a few waiters per warp slot at worst)
)

// Walk lists the counters.
func (c *Counters) Walk(k snap.Walk) {
	k.Varint(&c.Instructions)
	k.Varint(&c.Loads)
	k.Varint(&c.Stores)
	k.Varint(&c.AMLSum)
	k.Varint(&c.AMLCount)
	k.Varint(&c.Replays)
	k.Varint(&c.HitReturns)
}

// walk lists one warp slot verbatim, including inactive slots' stale
// contents — a restored scheduler must be bit-equivalent to the live
// one, and stale slots participate in nothing but are part of that
// equivalence. The cached scoreboard answer is derived state: never
// serialised, rebuilt by Scheduler.restored.
func (wp *Warp) walk(k snap.Walk) {
	k.Bool(&wp.Active)
	k.Int32(&wp.Global)
	k.Int32(&wp.Block)
	k.Int32(&wp.WarpInBlk)
	k.Int32(&wp.Iter)
	k.Int32(&wp.TotalIters)
	k.Int32(&wp.BodyIdx)
	k.Varint(&wp.FlatIdx)
	k.Varint(&wp.ReadyAt)
	k.Varint(&wp.Age)
	k.Bool(&wp.Vital)
	k.Bool(&wp.Pollute)
	n := k.Count(len(wp.Pend), maxPending)
	if r := k.Reader(); r != nil {
		wp.Pend = wp.Pend[:0]
		for i := 0; i < n; i++ {
			p := Pending{Token: r.Varint(), DepFlat: r.Varint(), RetCycle: r.Varint()}
			if done := r.Bool(); !done { // older containers list resolved loads too
				wp.Pend = append(wp.Pend, p)
			}
		}
	} else {
		w := k.Writer()
		for _, p := range wp.Pend {
			w.Varint(p.Token)
			w.Varint(p.DepFlat)
			w.Varint(p.RetCycle)
			w.Bool(false) // was Pending.Done; a resolved load is now removed, never flagged
		}
	}
	k.Varint(&wp.tokenSeq)
}

// walk lists the scheduler: warp slots, age order, greedy pointer,
// tuple, wake hint and the cumulative issue/stall/idle counters (which
// persist across the kernels of a workload).
func (s *Scheduler) walk(k snap.Walk) {
	k.Fixed(len(s.Slots), "sm: snapshot has %d warp slots, scheduler has %d")
	for i := range s.Slots {
		s.Slots[i].walk(k)
	}
	snap.Slice(k, &s.ageOrder, len(s.Slots), snap.Walk.Int)
	k.Varint(&s.dispatchSeq)
	k.Int(&s.current)
	k.Int(&s.n)
	k.Int(&s.p)
	k.Varint(&s.wakeHint)
	k.Varint(&s.IssueCycles)
	k.Varint(&s.StallCycles)
	k.Varint(&s.IdleCycles)
}

// restored rebuilds every slot's cached scoreboard answer and checks
// what the issue path trusts without looking. The SM's walk runs it for
// each scheduler at its end.
func (s *Scheduler) restored() error {
	live := 0
	for i := range s.Slots {
		s.Slots[i].rebuild()
		if s.Slots[i].Active {
			live++
		}
	}
	// Retire and PickOrWake trust the age order to be exactly the live
	// slots, oldest first: a slot named twice or out of order leaves a
	// stale entry behind a Retire, which the scan then picks.
	for i, v := range s.ageOrder {
		if v < 0 || v >= len(s.Slots) {
			return fmt.Errorf("sm: age-order slot %d out of range", v)
		}
		if !s.Slots[v].Active {
			return fmt.Errorf("sm: age-order slot %d holds no live warp", v)
		}
		// Live warps differ in Age, so ascending also means named once.
		if i > 0 && s.Slots[v].Age <= s.Slots[s.ageOrder[i-1]].Age {
			return fmt.Errorf("sm: age-order slot %d is not older than slot %d after it", s.ageOrder[i-1], v)
		}
	}
	if len(s.ageOrder) != live {
		return fmt.Errorf("sm: age order lists %d of %d live warps", len(s.ageOrder), live)
	}
	if s.current < -1 || s.current >= len(s.Slots) {
		return fmt.Errorf("sm: greedy pointer %d out of range", s.current)
	}
	if s.n < 1 || s.n > len(s.Slots) || s.p < 1 || s.p > s.n {
		return fmt.Errorf("sm: tuple (%d,%d) out of range", s.n, s.p)
	}
	return nil
}

func walkWaiter(k snap.Walk, w *cache.Waiter) {
	k.Int(&w.Sched)
	k.Int(&w.Slot)
	k.Varint(&w.Token)
	k.Int32(&w.Warp)
}

// Walk lists the SM: schedulers, L1 (with victim tags), MSHR file,
// counters, per-kernel PC tables, bypass marks and the replay queue.
func (s *SM) Walk(k snap.Walk) {
	k.Fixed(len(s.Scheds), "sm: snapshot has %d schedulers, SM has %d")
	for _, sch := range s.Scheds {
		sch.walk(k)
	}
	s.L1.Walk(k)
	s.MSHR.Walk(k)
	s.C.Walk(k)
	snap.Pairs(k, &s.PCLoads, &s.PCHits, maxBody)
	marked := s.BypassPC != nil
	k.Bool(&marked)
	if !marked {
		s.BypassPC = nil
	} else {
		if s.BypassPC == nil {
			s.BypassPC = []bool{} // a table of no marks is still a table
		}
		snap.Slice(k, &s.BypassPC, maxBody, snap.Walk.Bool)
	}
	snap.Slice(k, &s.ReplayQ, maxReplayQ, walkWaiter)
	k.Check(func() error {
		for _, sch := range s.Scheds {
			if err := sch.restored(); err != nil {
				return err
			}
		}
		return nil
	})
}

// CheckRestored validates, in one pass after Walk, what the fill
// and issue paths index without looking: every MSHR and replay-queue
// waiter names a warp slot this SM has, and every live warp stands
// inside a kernel body of bodyLen instructions.
func (s *SM) CheckRestored(bodyLen int) (err error) {
	waiter := func(w cache.Waiter) {
		if w.Sched < 0 || w.Sched >= len(s.Scheds) || w.Slot < 0 || w.Slot >= len(s.Scheds[w.Sched].Slots) {
			err = fmt.Errorf("sm: SM %d has a waiter for scheduler %d slot %d, which it does not have", s.ID, w.Sched, w.Slot)
		}
	}
	s.MSHR.EachWaiter(waiter)
	for _, w := range s.ReplayQ {
		waiter(w)
	}
	for _, sch := range s.Scheds {
		for i := range sch.Slots {
			w := &sch.Slots[i]
			if w.Active && (w.BodyIdx < 0 || int(w.BodyIdx) >= bodyLen || w.Iter < 0 || w.Iter > w.TotalIters) {
				err = fmt.Errorf("sm: SM %d warp %d stands at instruction %d of %d, iteration %d of %d",
					s.ID, w.Global, w.BodyIdx, bodyLen, w.Iter, w.TotalIters)
			}
		}
	}
	return err
}
