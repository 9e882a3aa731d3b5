package sim

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refHeap is the binary min-heap by cycle that held the fills before
// the per-SM rings: the oracle the rings are compared against.
type refHeap struct{ a []event }

func (h *refHeap) push(e event) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent].cycle <= h.a[i].cycle {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

func (h *refHeap) next() int64 {
	if len(h.a) == 0 {
		return Never
	}
	return h.a[0].cycle
}

func (h *refHeap) pop() event {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	for i := 0; ; {
		l, r, smallest := 2*i+1, 2*i+2, i
		if l < last && h.a[l].cycle < h.a[smallest].cycle {
			smallest = l
		}
		if r < last && h.a[r].cycle < h.a[smallest].cycle {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
}

// byCycleThenSM is the order the rings promise; the heap leaves the
// order within a cycle to its shape, so its pops are sorted before they
// are compared.
func byCycleThenSM(a, b event) int {
	if c := cmp.Compare(a.cycle, b.cycle); c != 0 {
		return c
	}
	return cmp.Compare(a.sm, b.sm)
}

// TestFillQueuePopsWhatAHeapWould feeds the same fills — per SM on
// strictly increasing cycles, never more in flight than the ring holds,
// which is what the crossbar and the MSHR file guarantee — to the rings
// and to the reference heap. next() must agree after every operation
// and every visit must pop the same fills, lowest SM first within a
// cycle. Runs are long enough for every ring to wrap many times; each
// ends with fills left over, which are first replayed in heap-array
// order through insert (how a snapshot written by the heap restores)
// and then dropped by reset, which must leave a queue DeepEqual to a
// new one.
func TestFillQueuePopsWhatAHeapWould(t *testing.T) {
	shifted := false // some insert landed ahead of a fill already queued
	for _, dim := range [][2]int{{1, 1}, {1, 5}, {3, 2}, {8, 32}, {32, 3}} {
		numSMs, perSM := dim[0], dim[1]
		rng := rand.New(rand.NewSource(int64(numSMs*100 + perSM)))
		var q, fresh fillQueue
		q.init(numSMs, perSM)
		fresh.init(numSMs, perSM)
		for run := 0; run < 3; run++ {
			var h refHeap
			now, line := int64(0), uint64(0)
			last := make([]int64, numSMs) // latest cycle handed to each SM
			agree := func(op string) {
				t.Helper()
				if q.next() != h.next() {
					t.Fatalf("%dx%d run %d cycle %d after %s: next fill at %d, the heap says %d",
						numSMs, perSM, run, now, op, q.next(), h.next())
				}
			}
			for step := 0; step < 4000; step++ {
				// Visit now: both sides deliver what is due.
				var got, want []event
				for q.next() <= now && h.next() <= now {
					got = append(got, q.pop())
					want = append(want, h.pop())
					agree("pop")
				}
				slices.SortFunc(want, byCycleThenSM)
				if !slices.Equal(got, want) {
					t.Fatalf("%dx%d run %d cycle %d: popped %v, the heap popped %v", numSMs, perSM, run, now, got, want)
				}
				// Issue: a few misses, bunched on few SMs as often as spread.
				for n := rng.Intn(2 * numSMs); n > 0; n-- {
					sm := int32(rng.Intn(numSMs))
					if rng.Intn(2) == 0 {
						sm = int32(rng.Intn(1 + numSMs/4))
					}
					if int(q.count[sm]) == perSM {
						continue // MSHR file full: the load parks instead
					}
					last[sm] = max(last[sm], now) + 1 + int64(rng.Intn(40))
					line++
					e := event{cycle: last[sm], sm: sm, line: line}
					q.push(e)
					h.push(e)
					agree("push")
				}
				switch next := q.next(); {
				case rng.Intn(3) == 0 || next == Never:
					now++ // something issued
				case rng.Intn(8) == 0:
					now = next + int64(rng.Intn(60)) // a late visit takes several cycles' fills
				default:
					now = next // idle: jump to the fill
				}
			}
			if len(h.a) == 0 { // the tiniest queue may end a run drained
				e := event{cycle: max(last[0], now) + 1, line: line + 1}
				q.push(e)
				h.push(e)
			}

			var restored fillQueue
			restored.init(numSMs, perSM)
			for _, e := range h.a {
				if n := restored.count[e.sm]; n > 0 && restored.at(e.sm, n-1).cycle > e.cycle {
					shifted = true
				}
				restored.insert(e)
				if restored.next() > e.cycle {
					t.Fatalf("%dx%d: insert of %v left next at %d", numSMs, perSM, e, restored.next())
				}
			}
			for q.next() != Never {
				if a, b := q.pop(), restored.pop(); a != b {
					t.Fatalf("%dx%d run %d: fills re-inserted in heap order pop %v where the rings pop %v", numSMs, perSM, run, b, a)
				}
			}
			if restored.next() != Never {
				t.Fatalf("%dx%d run %d: re-inserted queue holds extra fills", numSMs, perSM, run)
			}

			// A run cut short leaves fills behind; the next starts clean.
			for sm := 0; sm < numSMs; sm++ {
				q.push(event{cycle: now + 1, sm: int32(sm), line: 1})
			}
			q.reset()
			if !reflect.DeepEqual(&q, &fresh) {
				t.Fatalf("%dx%d run %d: reset left %+v", numSMs, perSM, run, q)
			}
		}
	}
	if !shifted {
		t.Fatal("no heap array ever listed an SM's fills out of cycle order: insert was not exercised")
	}
}

// TestFillQueueOverflowPanics: one fill more than the SM has MSHRs is a
// bug in the caller, and must not be absorbed by growing or by
// overwriting the oldest fill.
func TestFillQueueOverflowPanics(t *testing.T) {
	var q fillQueue
	q.init(2, 3)
	for i := int64(1); i <= 3; i++ {
		q.push(event{cycle: i, sm: 1, line: uint64(i)})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a fourth fill went into a ring of three")
		}
		if len(q.slots) != 6 {
			t.Fatalf("fill storage grew to %d slots", len(q.slots))
		}
	}()
	q.push(event{cycle: 4, sm: 1, line: 4})
}
