package sim

import (
	"math/rand"
	"slices"
	"testing"

	"poise/internal/config"
	"poise/internal/sm"
)

// listQueue is the hot side of the ready queue as it was before the
// bit-sets: a sorted list scanned by index, a buffer of hot-next keys,
// and bursting schedulers left on the list and skipped by a burstEnd
// compare.
type listQueue struct {
	mode     []schedMode
	wakeAt   []int64
	burstEnd []int64
	hot      []int32
	woken    []int32
	scanKey  int32
}

func (m *listQueue) insertHot(key int32) {
	i, _ := slices.BinarySearch(m.hot, key)
	m.hot = slices.Insert(m.hot, i, key)
}

func (m *listQueue) requeue(key int32) {
	switch m.mode[key] {
	case schedHot, schedHotNext:
		return
	}
	if key > m.scanKey && m.scanKey >= 0 {
		m.mode[key] = schedHot
		m.insertHot(key)
		return
	}
	m.mode[key] = schedHotNext
	m.woken = append(m.woken, key)
}

func (m *listQueue) admit(now int64) {
	for key, mode := range m.mode {
		if mode == schedTimed && m.wakeAt[key] <= now {
			m.mode[key] = schedHotNext
			m.woken = append(m.woken, int32(key))
		}
	}
	for _, key := range m.woken {
		m.mode[key] = schedHot
		m.insertHot(key)
	}
	m.woken = m.woken[:0]
}

// TestHotSetVisitsWhatASortedListWould drives the bit-set hot set, the
// burst calendar and the sorted list they replaced through the same
// random visits — wakes between visits and during an attempt (below, at
// and above the scan position, next to it and a word away), drop-outs
// to dormant and timed, bursts of every length the calendar holds,
// settles ahead of admit, and idle jumps far longer than the calendar —
// and requires the same schedulers attempted in the same order, the
// same visits counted as issuing, and the same modes after every visit.
func TestHotSetVisitsWhatASortedListWould(t *testing.T) {
	for _, numSMs := range []int{20, 50, 75} { // 40, 100 and 150 schedulers: one to three words
		cfg := config.Default()
		cfg.NumSMs = numSMs
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rq := &g.rq
		n := int32(len(rq.mode))
		if len(rq.hot) != (numSMs*2+63)/64 {
			t.Fatalf("%d schedulers in %d words", n, len(rq.hot))
		}
		// settleBursts retreats the greedy warp: give every scheduler one.
		for key, sch := range rq.schedOf {
			sch.Launch(int32(key), 0, 0, 1)
			sch.Pick(0)
		}
		rng := rand.New(rand.NewSource(int64(numSMs)))
		rq.start(g, 0) // every wake hint is zero: everyone starts hot
		m := &listQueue{
			mode:     slices.Clone(rq.mode),
			wakeAt:   make([]int64, n),
			burstEnd: make([]int64, n),
			scanKey:  -1,
		}
		for key := int32(0); key < n; key++ {
			m.hot = append(m.hot, key)
		}
		wake := func(key int32) {
			if key >= 0 && key < n {
				g.requeueSched(rq.smOf[key], rq.schedOf[key].ID)
				m.requeue(key)
			}
		}
		crossed := false // a wake during an attempt landed in a later word
		for visit := 0; visit < 10000; visit++ {
			now := g.now
			rq.visits++
			if rng.Intn(7) == 0 { // Policy.Step: ahead of admit, so a burst over at now is still filed
				g.settleBursts(now)
				clear(m.burstEnd)
			}
			for i := rng.Intn(3); i > 0; i-- { // fills
				wake(rng.Int31n(n))
			}
			rq.admit(now)
			m.admit(now)

			anyIssued, mIssued := rq.bursting > 0, false
			i := 0
			for key := rq.nextHot(0); ; key = rq.nextHot(key + 1) {
				want := int32(-1)
				for ; i < len(m.hot); i++ {
					if m.burstEnd[m.hot[i]] > now {
						mIssued = true
					} else if m.mode[m.hot[i]] == schedHot {
						want = m.hot[i]
						break
					}
				}
				if key != want {
					t.Fatalf("%d schedulers, cycle %d: the hot set attempts %d, the list %d", n, now, key, want)
				}
				if key < 0 {
					break
				}
				i++
				rq.scanKey, m.scanKey = key, key
				for j := rng.Intn(3); j > 0; j-- { // a retiring warp launches blocks all over the machine
					target := []int32{key - 1 - rng.Int31n(3), key, key + 1, key + 1 + rng.Int31n(3), key + 64, rng.Int31n(n)}[rng.Intn(6)]
					if target < n && target>>6 > key>>6 && rq.mode[target] < schedHot {
						crossed = true
					}
					wake(target)
				}
				switch r := rng.Intn(20); {
				case r < 8: // an ordinary issue
					anyIssued, mIssued = true, true
				case r < 13: // a burst, at its longest behind a load
					end := now + 2 + rng.Int63n(ringSlots-1)
					rq.burstEnd[key], m.burstEnd[key] = end, end
					rq.fileBurst(key, end)
					anyIssued, mIssued = true, true
				default: // blocked
					h := sm.NoDep
					if rng.Intn(2) == 0 {
						h = now + 1 + rng.Int63n(150)
					}
					rq.leaveHot(key, h, true)
					m.mode[key] = schedDormant
					if h != sm.NoDep {
						m.mode[key], m.wakeAt[key] = schedTimed, h
					}
				}
			}
			rq.scanKey, m.scanKey = -1, -1
			m.hot = slices.DeleteFunc(m.hot, func(key int32) bool { return m.mode[key] != schedHot })

			if anyIssued != mIssued {
				t.Fatalf("%d schedulers, cycle %d: the hot set says issued = %v, the list %v", n, now, anyIssued, mIssued)
			}
			if !slices.Equal(rq.mode, m.mode) {
				t.Fatalf("%d schedulers, cycle %d: modes diverge\n set:  %v\n list: %v", n, now, rq.mode, m.mode)
			}
			if _, err := g.CheckBurstBooks(); err != nil {
				t.Fatal(err)
			}
			for key := int32(0); key < n; key++ {
				_, listed := slices.BinarySearch(m.hot, key)
				if on := rq.hot[key>>6]>>(key&63)&1 != 0; on != (listed && m.burstEnd[key] <= now) {
					t.Fatalf("%d schedulers, cycle %d: scheduler %d on the hot set: %v; on the list: %v, bursting until %d",
						n, now, key, on, listed, m.burstEnd[key])
				}
			}
			if anyIssued {
				g.now++
			} else {
				g.now += 1 + rng.Int63n(300) // idle until a fill far away
			}
		}
		if len(rq.hot) > 1 && !crossed {
			t.Fatalf("%d schedulers: no attempt ever woke a scheduler in a later word", n)
		}
	}
}
