package sim

// White-box tests for the replay-queue admission path in completeFill.
// The queue is popped by copying the tail down over the consumed prefix
// so the backing array is reused; the previous head-reslice pop
// (q = q[1:]) advanced the base pointer one slot per admission, which
// strands storage and forces append to reallocate under sustained MSHR
// pressure. These tests pin both the storage reuse and the FIFO
// stale-skip semantics.

import (
	"testing"

	"poise/internal/cache"
	"poise/internal/config"
	"poise/internal/sm"
)

// parkReplayer registers an outstanding load for w and parks it in the
// SM's replay queue, exactly as issueLoad's full-MSHR path does.
func parkReplayer(s *sm.SM, sched, slot int, w *sm.Warp) int64 {
	tok := w.NewToken()
	w.AddPending(sm.Pending{Token: tok, DepFlat: w.FlatIdx})
	s.ReplayQ = append(s.ReplayQ, cache.Waiter{Sched: sched, Slot: slot, Token: tok, Warp: w.Global})
	return tok
}

// fillLine allocates an MSHR for line and immediately completes the
// fill, driving the replay-admission path once.
func fillLine(t *testing.T, g *GPU, s *sm.SM, line uint64) {
	t.Helper()
	w := &s.Scheds[0].Slots[0]
	if s.MSHR.Allocate(line, 0, true, w.Global, 0,
		cache.Waiter{Sched: 0, Slot: 0, Token: 0, Warp: w.Global}) == nil {
		t.Fatal("MSHR.Allocate failed with an empty file")
	}
	g.completeFill(event{sm: int32(s.ID), line: line})
}

// TestReplayQueueReusesStorage drives many park-then-fill rounds and
// requires the queue's backing array to stay put: the copy-down pop
// leaves the base pointer stable, while a head-reslice pop would walk
// it forward every admission until append reallocates.
func TestReplayQueueReusesStorage(t *testing.T) {
	g, err := New(config.Default().Scale(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := g.SMs[0]
	sch := s.Scheds[0]
	slot := sch.Launch(1, 0, 0, 1)
	if slot < 0 {
		t.Fatal("Launch failed")
	}
	w := &sch.Slots[slot]

	var base *cache.Waiter
	for i := 0; i < 512; i++ {
		parkReplayer(s, 0, slot, w)
		if base == nil {
			base = &s.ReplayQ[0]
		} else if &s.ReplayQ[0] != base {
			t.Fatalf("replay queue backing storage moved after %d admissions", i)
		}
		fillLine(t, g, s, uint64(0x1000+i))
		if len(s.ReplayQ) != 0 {
			t.Fatalf("round %d: queue not drained, len=%d", i, len(s.ReplayQ))
		}
	}
	if got := cap(s.ReplayQ); got > 4 {
		t.Fatalf("replay queue capacity grew to %d despite single-entry rounds", got)
	}
}

// TestReplayQueueFIFOSkipsStale parks a stale waiter (its warp slot was
// recycled) ahead of two live ones and checks one fill consumes the
// stale prefix plus exactly the first live waiter, leaving the second
// live waiter queued with its storage shifted down.
func TestReplayQueueFIFOSkipsStale(t *testing.T) {
	g, err := New(config.Default().Scale(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := g.SMs[0]
	sch := s.Scheds[0]
	sa := sch.Launch(10, 0, 0, 1)
	sb := sch.Launch(11, 0, 1, 1)
	wa, wb := &sch.Slots[sa], &sch.Slots[sb]

	// Stale: references slot sa but a warp id that no longer occupies it.
	s.ReplayQ = append(s.ReplayQ, cache.Waiter{Sched: 0, Slot: sa, Token: 99, Warp: 77})
	tokA := parkReplayer(s, 0, sa, wa)
	tokB := parkReplayer(s, 0, sb, wb)

	fillLine(t, g, s, 0x2000)

	if len(s.ReplayQ) != 1 {
		t.Fatalf("queue length after fill = %d, want 1", len(s.ReplayQ))
	}
	if got := s.ReplayQ[0]; got.Warp != wb.Global || got.Token != tokB {
		t.Fatalf("remaining waiter = %+v, want warp %d token %d", got, wb.Global, tokB)
	}
	// A parked warp is blocked on its replay token; admission resolves it.
	if !wa.CanIssue(0) {
		t.Fatalf("first live waiter (token %d) was not admitted", tokA)
	}
	if wb.CanIssue(0) {
		t.Fatal("second live waiter admitted early; replay admission must be one per fill")
	}

	// The next fill admits the remaining waiter and empties the queue.
	fillLine(t, g, s, 0x3000)
	if len(s.ReplayQ) != 0 {
		t.Fatalf("queue length after second fill = %d, want 0", len(s.ReplayQ))
	}
	if !wb.CanIssue(0) {
		t.Fatal("second live waiter was not admitted by the second fill")
	}
}
