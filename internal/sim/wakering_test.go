package sim

import (
	"math/rand"
	"slices"
	"testing"

	"poise/internal/config"
)

// TestWakeRingVisitsWhatAHeapWould replays random marker traffic into
// the ring and into a plain sorted list of cycles (what the event heap
// held when markers were heap entries) and requires the same visited
// cycles from both — over back-to-back visits, jumps across idle
// stretches far longer than the ring, and a reset with markers left
// over followed by a new run from cycle 0.
func TestWakeRingVisitsWhatAHeapWould(t *testing.T) {
	for _, horizon := range []int{1, 4, 28, 31, 32, 100} {
		rng := rand.New(rand.NewSource(int64(horizon)))
		var r wakeRing
		r.init(horizon)
		if len(r.flags) <= horizon {
			t.Fatalf("horizon %d: ring of %d flags would alias now with now+horizon", horizon, len(r.flags))
		}
		for run := 0; run < 3; run++ {
			var oracle []int64 // pending marker cycles, duplicates kept
			now := int64(0)
			for step := 0; step < 3000; step++ {
				// Visit now: both sides consume what is due.
				r.visit(now)
				oracle = slices.DeleteFunc(oracle, func(c int64) bool { return c <= now })
				// Issue: a few markers within the horizon, often coinciding.
				for n := rng.Intn(4); n > 0; n-- {
					c := now + 1 + int64(rng.Intn(horizon))
					r.mark(c)
					oracle = append(oracle, c)
				}
				want := Never
				if len(oracle) > 0 {
					want = slices.Min(oracle)
				}
				if got := r.next(now); got != want {
					t.Fatalf("horizon %d run %d cycle %d: next marker %d, the heap says %d", horizon, run, now, got, want)
				}
				switch {
				case rng.Intn(3) == 0:
					now++ // something issued
				case want != Never:
					now = want // idle: jump to the marker
				default:
					now += 1 + int64(rng.Intn(5000)) // idle stretch ended by a fill far away
				}
			}
			if run == 1 && r.marked == 0 {
				r.mark(now + 1)
			}
			r.reset() // a run that ended (or was cut short) with markers pending
			if r.marked != 0 || slices.Contains(r.flags, true) {
				t.Fatalf("horizon %d: reset left markers behind", horizon)
			}
		}
	}
}

// TestFillsOfOneSMNeverShareACycle pins what the per-SM fill rings are
// built on: the crossbar serialises each SM's response port, so the
// fills scheduled for one SM land on strictly increasing cycles in the
// order they were requested, however the requests bunch up and whether
// the data comes from an L2 hit or a DRAM trip. Different SMs do share
// cycles; completeFill touches only its own SM, so their order is free.
func TestFillsOfOneSMNeverShareACycle(t *testing.T) {
	cfg := config.Default().Scale(2)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	last := make([]int64, cfg.NumSMs) // latest fill cycle per SM
	shared := false
	byCycle := map[int64]int{}
	// An L2 hit requested while a DRAM trip of the same SM is still out
	// has its data ready first: only the response port keeps the order.
	overtaken := false
	tripAt := make([]int64, cfg.NumSMs) // request cycle of the SM's last access if it went to DRAM
	for i := 0; i < 4000; i++ {
		if rng.Intn(4) == 0 {
			g.now += int64(rng.Intn(3))
		}
		smID := rng.Intn(cfg.NumSMs)
		// A small line pool mixes L2 hits with DRAM trips, so responses
		// become ready out of request order.
		hits := g.L2Hits
		ret := g.memAccess(smID, uint64(rng.Intn(512)), 0, 0, false)
		if ret <= last[smID] {
			t.Fatalf("request %d: fill for SM %d at cycle %d, its previous one at %d", i, smID, ret, last[smID])
		}
		if ret <= g.now {
			t.Fatalf("request %d: fill at cycle %d is not after its request at %d", i, ret, g.now)
		}
		last[smID] = ret
		if other, ok := byCycle[ret]; ok && other != smID {
			shared = true
		}
		byCycle[ret] = smID
		if g.L2Hits == hits {
			tripAt[smID] = g.now
		} else {
			if tripAt[smID] > 0 && g.now-tripAt[smID] < int64(cfg.DRAMLatency) {
				overtaken = true
			}
			tripAt[smID] = 0
		}
	}
	if !shared {
		t.Fatal("no two SMs ever shared a fill cycle: the test does not exercise the tie it is about")
	}
	if !overtaken {
		t.Fatalf("L2 hits %d, DRAM trips %d, but no hit was requested behind a trip still out: responses never became ready out of order",
			g.L2Hits, g.DRAM.Accesses)
	}
}
