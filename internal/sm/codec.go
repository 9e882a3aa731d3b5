package sm

import (
	"fmt"
	"slices"

	"poise/internal/cache"
	"poise/internal/snap"
)

// waiterFrom decodes one cache.Waiter (fields are read left to right,
// matching the encode order).
func waiterFrom(r *snap.Reader) cache.Waiter {
	return cache.Waiter{
		Sched: int(r.Varint()),
		Slot:  int(r.Varint()),
		Token: r.Varint(),
		Warp:  int32(r.Varint()),
	}
}

// Checkpoint codecs for the SM layer. Structure (slot counts,
// scheduler counts, L1 geometry) comes from the configuration the
// restoring GPU was built with; only mutable state crosses the wire,
// and Decode verifies the shapes line up.

// maxBody bounds the per-kernel PC-table length on decode.
const maxBody = 1 << 20

// maxPending bounds one warp's outstanding-load scoreboard.
const maxPending = 1 << 16

// maxReplayQ bounds the SM replay queue (a few waiters per warp slot
// at worst).
const maxReplayQ = 1 << 20

// EncodeState serialises the counters.
func (c *Counters) EncodeState(w *snap.Writer) {
	w.Varint(c.Instructions)
	w.Varint(c.Loads)
	w.Varint(c.Stores)
	w.Varint(c.AMLSum)
	w.Varint(c.AMLCount)
	w.Varint(c.Replays)
	w.Varint(c.HitReturns)
}

// DecodeState restores counters written by EncodeState.
func (c *Counters) DecodeState(r *snap.Reader) {
	c.Instructions = r.Varint()
	c.Loads = r.Varint()
	c.Stores = r.Varint()
	c.AMLSum = r.Varint()
	c.AMLCount = r.Varint()
	c.Replays = r.Varint()
	c.HitReturns = r.Varint()
}

// encodeState serialises one warp slot verbatim, including inactive
// slots' stale contents — a restored scheduler must be bit-equivalent
// to the live one, and stale slots participate in nothing but are part
// of that equivalence.
func (wp *Warp) encodeState(w *snap.Writer) {
	w.Bool(wp.Active)
	w.Varint(int64(wp.Global))
	w.Varint(int64(wp.Block))
	w.Varint(int64(wp.WarpInBlk))
	w.Varint(int64(wp.Iter))
	w.Varint(int64(wp.TotalIters))
	w.Varint(int64(wp.BodyIdx))
	w.Varint(wp.FlatIdx)
	w.Varint(wp.ReadyAt)
	w.Varint(wp.Age)
	w.Bool(wp.Vital)
	w.Bool(wp.Pollute)
	w.Uvarint(uint64(len(wp.Pend)))
	for _, p := range wp.Pend {
		w.Varint(p.Token)
		w.Varint(p.DepFlat)
		w.Varint(p.RetCycle)
		w.Bool(false) // was Pending.Done; a resolved load is now removed, never flagged
	}
	w.Varint(wp.tokenSeq)
}

func (wp *Warp) decodeState(r *snap.Reader) error {
	wp.Active = r.Bool()
	wp.Global = int32(r.Varint())
	wp.Block = int32(r.Varint())
	wp.WarpInBlk = int32(r.Varint())
	wp.Iter = int32(r.Varint())
	wp.TotalIters = int32(r.Varint())
	wp.BodyIdx = int32(r.Varint())
	wp.FlatIdx = r.Varint()
	wp.ReadyAt = r.Varint()
	wp.Age = r.Varint()
	wp.Vital = r.Bool()
	wp.Pollute = r.Bool()
	n := r.Count(maxPending)
	wp.Pend = wp.Pend[:0]
	for i := 0; i < n; i++ {
		p := Pending{Token: r.Varint(), DepFlat: r.Varint(), RetCycle: r.Varint()}
		if done := r.Bool(); !done { // older containers list resolved loads too
			wp.Pend = append(wp.Pend, p)
		}
	}
	// The cached scoreboard answer is derived state: rebuilt here, never
	// serialised.
	wp.rebuild()
	wp.tokenSeq = r.Varint()
	return r.Err()
}

// EncodeState serialises the scheduler: warp slots, age order, greedy
// pointer, tuple, wake hint and the cumulative issue/stall/idle
// counters (which persist across the kernels of a workload).
func (s *Scheduler) EncodeState(w *snap.Writer) {
	w.Uvarint(uint64(len(s.Slots)))
	for i := range s.Slots {
		s.Slots[i].encodeState(w)
	}
	w.Uvarint(uint64(len(s.ageOrder)))
	for _, v := range s.ageOrder {
		w.Varint(int64(v))
	}
	w.Varint(s.dispatchSeq)
	w.Varint(int64(s.current))
	w.Varint(int64(s.n))
	w.Varint(int64(s.p))
	w.Varint(s.wakeHint)
	w.Varint(s.IssueCycles)
	w.Varint(s.StallCycles)
	w.Varint(s.IdleCycles)
}

// DecodeState restores a scheduler written by EncodeState.
func (s *Scheduler) DecodeState(r *snap.Reader) error {
	n := r.Uvarint()
	if r.Err() == nil && n != uint64(len(s.Slots)) {
		return fmt.Errorf("sm: snapshot has %d warp slots, scheduler has %d", n, len(s.Slots))
	}
	live := 0
	for i := range s.Slots {
		if err := s.Slots[i].decodeState(r); err != nil {
			return err
		}
		if s.Slots[i].Active {
			live++
		}
	}
	// Retire and PickOrWake trust the age order to be exactly the live
	// slots, oldest first: a slot named twice or out of order leaves a
	// stale entry behind a Retire, which the scan then picks.
	na := r.Count(len(s.Slots))
	s.ageOrder = s.ageOrder[:0]
	for i := 0; i < na; i++ {
		v := int(r.Varint())
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
		s.ageOrder = append(s.ageOrder, v)
	}
	if r.Err() == nil && na != live {
		return fmt.Errorf("sm: age order lists %d of %d live warps", na, live)
	}
	s.dispatchSeq = r.Varint()
	s.current = int(r.Varint())
	s.n = int(r.Varint())
	s.p = int(r.Varint())
	s.wakeHint = r.Varint()
	s.IssueCycles = r.Varint()
	s.StallCycles = r.Varint()
	s.IdleCycles = r.Varint()
	if r.Err() != nil {
		return r.Err()
	}
	if s.current < -1 || s.current >= len(s.Slots) {
		return fmt.Errorf("sm: greedy pointer %d out of range", s.current)
	}
	if s.n < 1 || s.n > len(s.Slots) || s.p < 1 || s.p > s.n {
		return fmt.Errorf("sm: tuple (%d,%d) out of range", s.n, s.p)
	}
	return nil
}

// EncodeState serialises the SM: schedulers, L1 (with victim tags),
// MSHR file, counters, per-kernel PC tables, bypass marks and the
// replay queue.
func (s *SM) EncodeState(w *snap.Writer) {
	w.Uvarint(uint64(len(s.Scheds)))
	for _, sch := range s.Scheds {
		sch.EncodeState(w)
	}
	s.L1.EncodeState(w)
	s.MSHR.EncodeState(w)
	s.C.EncodeState(w)
	w.Uvarint(uint64(len(s.PCLoads)))
	for i := range s.PCLoads {
		w.Varint(s.PCLoads[i])
		w.Varint(s.PCHits[i])
	}
	if s.BypassPC == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		w.Uvarint(uint64(len(s.BypassPC)))
		for _, b := range s.BypassPC {
			w.Bool(b)
		}
	}
	w.Uvarint(uint64(len(s.ReplayQ)))
	for _, wt := range s.ReplayQ {
		w.Varint(int64(wt.Sched))
		w.Varint(int64(wt.Slot))
		w.Varint(wt.Token)
		w.Varint(int64(wt.Warp))
	}
}

// DecodeState restores an SM written by EncodeState.
func (s *SM) DecodeState(r *snap.Reader) error {
	n := r.Uvarint()
	if r.Err() == nil && n != uint64(len(s.Scheds)) {
		return fmt.Errorf("sm: snapshot has %d schedulers, SM has %d", n, len(s.Scheds))
	}
	for _, sch := range s.Scheds {
		if err := sch.DecodeState(r); err != nil {
			return err
		}
	}
	if err := s.L1.DecodeState(r); err != nil {
		return err
	}
	if err := s.MSHR.DecodeState(r); err != nil {
		return err
	}
	s.C.DecodeState(r)
	np := r.Count(maxBody)
	s.PCLoads = slices.Grow(s.PCLoads[:0], np)[:np]
	s.PCHits = slices.Grow(s.PCHits[:0], np)[:np]
	for i := 0; i < np; i++ {
		s.PCLoads[i] = r.Varint()
		s.PCHits[i] = r.Varint()
	}
	if r.Bool() {
		nb := r.Count(maxBody)
		s.BypassPC = make([]bool, nb)
		for i := range s.BypassPC {
			s.BypassPC[i] = r.Bool()
		}
	} else {
		s.BypassPC = nil
	}
	nq := r.Count(maxReplayQ)
	s.ReplayQ = s.ReplayQ[:0]
	for i := 0; i < nq; i++ {
		s.ReplayQ = append(s.ReplayQ, waiterFrom(r))
	}
	return r.Err()
}

// CheckRestored validates, in one pass after DecodeState, what the fill
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
