package sm

import (
	"math/rand"
	"reflect"
	"testing"
)

// The scoreboard as it was before the cached answer: every question
// walks the warp's pending loads. Kept here as the oracle the cached
// CanIssue and the one-pass PickOrWake are checked against.

type oraclePending struct {
	Pending
	done bool
}

type oracleWarp struct {
	pend    []oraclePending
	flatIdx int64
	readyAt int64
}

func (o *oracleWarp) resolve(token int64) {
	for i := range o.pend {
		if o.pend[i].Token == token {
			o.pend[i].done = true
			return
		}
	}
}

// retire drops completed loads, as the old depBlocked did on every
// call. The oracle does it once per step at the true cycle, so that
// look-ahead questions (canIssue at a future cycle) stay pure.
func (o *oracleWarp) retire(now int64) {
	live := o.pend[:0]
	for _, p := range o.pend {
		if !p.done && !p.returned(now) {
			live = append(live, p)
		}
	}
	o.pend = live
}

func (p *oraclePending) returned(now int64) bool { return p.RetCycle != 0 && p.RetCycle <= now }

func (o *oracleWarp) depBlocked(now int64) bool {
	for _, p := range o.pend {
		if !p.done && !p.returned(now) && o.flatIdx >= p.DepFlat {
			return true
		}
	}
	return false
}

func (o *oracleWarp) canIssue(now int64) bool {
	return now >= o.readyAt && !o.depBlocked(now)
}

func (o *oracleWarp) nextWake(now int64) int64 {
	wake := max(o.readyAt, now+1)
	if !o.depBlocked(now) {
		return wake
	}
	earliest := NoDep
	for _, p := range o.pend {
		if p.done || p.returned(now) || o.flatIdx < p.DepFlat {
			continue
		}
		if p.RetCycle == 0 {
			return NoDep
		}
		earliest = min(earliest, p.RetCycle)
	}
	return max(earliest, wake)
}

// oracleSched is the old Pick and NextWake over the real scheduler's
// age order, asking the oracle warps.
type oracleSched struct {
	s       *Scheduler
	warps   []oracleWarp // by slot
	current int
}

func (o *oracleSched) vital() []int { return o.s.ageOrder[:o.s.VitalCount()] }

func (o *oracleSched) pick(now int64) int {
	if o.current >= 0 && o.s.Slots[o.current].Vital && o.warps[o.current].canIssue(now) {
		return o.current
	}
	for _, slot := range o.vital() {
		if o.warps[slot].canIssue(now) {
			o.current = slot
			return slot
		}
	}
	return -1
}

func (o *oracleSched) nextWake(now int64) int64 {
	earliest := NoDep
	for _, slot := range o.vital() {
		earliest = min(earliest, o.warps[slot].nextWake(now))
	}
	return earliest
}

func (o *oracleSched) anyIssueable(now int64) bool {
	for _, slot := range o.vital() {
		if o.warps[slot].canIssue(now) {
			return true
		}
	}
	return false
}

// TestScoreboardCacheMatchesWalk drives random issue / fill / replay /
// tuple / time-advance sequences through a scheduler and the oracle
// side by side. After every step each warp's CanIssue must agree with
// the walk, PickOrWake must choose the warp the old Pick chose, and a
// failed pick's wake must be exact: nothing can issue before it, and
// something can at it.
func TestScoreboardCacheMatchesWalk(t *testing.T) {
	const (
		slots      = 6
		hitLatency = 28
		aluLatency = 4
	)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(0, slots)
		o := &oracleSched{s: s, warps: make([]oracleWarp, slots), current: -1}
		for i := 0; i < slots; i++ {
			s.Launch(int32(i), 0, int32(i), 1<<20)
		}
		var misses [slots][]int64 // outstanding miss and replay tokens
		now := int64(0)

		add := func(slot int, p Pending) {
			s.Slots[slot].AddPending(p)
			o.warps[slot].pend = append(o.warps[slot].pend, oraclePending{Pending: p})
		}
		issue := func(slot int) {
			w, ow := &s.Slots[slot], &o.warps[slot]
			ready := now + 1
			switch rng.Intn(5) {
			case 0: // L1 hit
				add(slot, Pending{Token: w.NewToken(), DepFlat: w.FlatIdx + 1 + int64(rng.Intn(4)), RetCycle: now + hitLatency})
			case 1: // miss
				tok := w.NewToken()
				add(slot, Pending{Token: tok, DepFlat: w.FlatIdx + 1 + int64(rng.Intn(4))})
				misses[slot] = append(misses[slot], tok)
			case 2: // MSHR full: the load parks and does not advance
				tok := w.NewToken()
				add(slot, Pending{Token: tok, DepFlat: w.FlatIdx})
				misses[slot] = append(misses[slot], tok)
				return
			case 3: // dependent ALU
				ready = now + aluLatency
			}
			w.ReadyAt, ow.readyAt = ready, ready
			w.Advance(1 << 10)
			ow.flatIdx++
		}

		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				if slot, _ := s.PickOrWake(now); slot >= 0 {
					issue(slot)
				}
				now++
			case r < 7:
				now += int64(rng.Intn(2 * hitLatency))
			case r < 9:
				slot := rng.Intn(slots)
				if n := len(misses[slot]); n > 0 {
					i := rng.Intn(n)
					tok := misses[slot][i]
					misses[slot] = append(misses[slot][:i], misses[slot][i+1:]...)
					if !s.Slots[slot].ResolveToken(tok) {
						t.Fatalf("seed %d step %d: token %d not found", seed, step, tok)
					}
					o.warps[slot].resolve(tok)
				}
			default:
				n := 1 + rng.Intn(slots)
				s.SetTuple(n, 1+rng.Intn(n))
				if o.current >= 0 && !s.Slots[o.current].Vital {
					o.current = -1
				}
			}

			for slot := range s.Slots {
				o.warps[slot].retire(now)
				if got, want := s.Slots[slot].CanIssue(now), o.warps[slot].canIssue(now); got != want {
					t.Fatalf("seed %d step %d cycle %d slot %d: CanIssue = %v, the walk says %v",
						seed, step, now, slot, got, want)
				}
			}
			wantWake := o.nextWake(now)
			slot, wake := s.PickOrWake(now)
			if want := o.pick(now); slot != want {
				t.Fatalf("seed %d step %d cycle %d: picked slot %d, the old Pick picks %d", seed, step, now, slot, want)
			}
			if got := s.NextWake(now); slot >= 0 && got != now+1 {
				t.Fatalf("seed %d step %d cycle %d: NextWake = %d with a warp ready now", seed, step, now, got)
			}
			if slot >= 0 {
				continue
			}
			// The new wake is the max of the blocking hit returns where the
			// old one was their min: never earlier, and unknown together.
			if wake < wantWake || (wake == NoDep) != (wantWake == NoDep) {
				t.Fatalf("seed %d step %d cycle %d: wake %d, old NextWake %d", seed, step, now, wake, wantWake)
			}
			if wake == NoDep {
				continue
			}
			if wake <= now || o.anyIssueable(wake-1) || !o.anyIssueable(wake) {
				t.Fatalf("seed %d step %d cycle %d: wake %d is not the first issueable cycle", seed, step, now, wake)
			}
		}
	}
}

// TestRelaunchedSlotKeepsScoreboardStorage: a slot's Pend storage
// survives Retire and Launch (a kernel's later warps do not regrow it),
// and Reset empties it without letting go, which is also what a fresh
// scheduler's slots look like: a pooled scheduler equals a fresh one and
// a restore on it finds the storage there.
func TestRelaunchedSlotKeepsScoreboardStorage(t *testing.T) {
	s := NewScheduler(0, 2)
	slot := s.Launch(1, 0, 0, 5)
	w := &s.Slots[slot]
	for i := 0; i < 3; i++ {
		w.AddPending(Pending{Token: w.NewToken(), DepFlat: 10})
	}
	had := cap(w.Pend)
	s.Retire(slot)
	if got := s.Launch(2, 0, 1, 5); got != slot {
		t.Fatalf("relaunch went to slot %d, want %d", got, slot)
	}
	if len(w.Pend) != 0 || cap(w.Pend) != had {
		t.Fatalf("relaunched slot has len %d cap %d, want 0 and %d", len(w.Pend), cap(w.Pend), had)
	}
	if !w.CanIssue(0) {
		t.Fatal("a relaunched warp must not inherit its predecessor's scoreboard")
	}
	s.Reset()
	if len(w.Pend) != 0 || cap(w.Pend) != had {
		t.Fatalf("reset slot has len %d cap %d, want 0 and %d", len(w.Pend), cap(w.Pend), had)
	}
	if !reflect.DeepEqual(s, NewScheduler(0, 2)) {
		t.Fatal("a reset scheduler differs from a fresh one")
	}
}

// TestAdvanceRunMatchesAdvance: over random scoreboard contents,
// AdvanceRun(k) leaves the warp exactly where k calls of Advance do
// whenever k is within RunRoom and short of the body's end, RetreatRun
// inverts it, and a fill that resolves one of the warp's loads while
// the run holds FlatIdx ahead of the cycle leaves what the same fill
// leaves part-way through the k Advances.
func TestAdvanceRunMatchesAdvance(t *testing.T) {
	const bodyLen = 40
	clone := func(w *Warp) *Warp {
		c := *w
		c.Pend = append([]Pending(nil), w.Pend...)
		return &c
	}
	rng := rand.New(rand.NewSource(14))
	ran, resolved := 0, 0
	for trial := 0; trial < 5000; trial++ {
		s := NewScheduler(0, 1)
		w := &s.Slots[s.Launch(0, 0, 0, 1<<20)]
		if trial%50 == 0 {
			// A just-launched warp has not built its scoreboard yet.
			if w.RunRoom() > 0 {
				t.Fatalf("a just-launched warp reports room %d before its first rebuild", w.RunRoom())
			}
			continue
		}
		w.Iter = int32(rng.Intn(5))
		w.BodyIdx = int32(rng.Intn(bodyLen))
		w.FlatIdx = int64(w.Iter)*bodyLen + int64(w.BodyIdx)
		w.ReadyAt = int64(rng.Intn(200))
		w.rebuild()
		for n := rng.Intn(5); n > 0; n-- {
			p := Pending{Token: w.NewToken(), DepFlat: w.FlatIdx - 2 + int64(rng.Intn(30))}
			if rng.Intn(2) == 0 {
				p.RetCycle = 1 + int64(rng.Intn(400))
			}
			w.AddPending(p)
		}
		room := min(w.RunRoom(), int64(bodyLen-1-w.BodyIdx))
		if room < 0 {
			t.Fatalf("trial %d: RunRoom %d with FlatIdx %d nextDep %d", trial, w.RunRoom(), w.FlatIdx, w.nextDep)
		}
		start := clone(w)
		for k := int64(0); k <= room; k++ {
			// A load beyond the run, resolved after j issues of it.
			var token int64
			for _, p := range w.Pend {
				if p.DepFlat > w.FlatIdx {
					token = p.Token
				}
			}
			j := rng.Int63n(k + 1)
			step, run := clone(start), clone(start)
			for i := int64(0); i < k; i++ {
				if i == j && token != 0 {
					step.ResolveToken(token)
				}
				if step.Advance(bodyLen) {
					t.Fatalf("trial %d: the warp retired inside a run", trial)
				}
			}
			if j == k && token != 0 {
				step.ResolveToken(token)
			}
			run.AdvanceRun(k)
			if token != 0 {
				run.ResolveToken(token)
				resolved++
			}
			if !reflect.DeepEqual(step, run) {
				t.Fatalf("trial %d: AdvanceRun(%d) of room %d:\n  got  %+v\n  want %+v", trial, k, room, run, step)
			}
			// Taking back r issues leaves what k-r Advances leave.
			r := rng.Int63n(k + 1)
			short, back := clone(start), clone(start)
			for i := int64(0); i < k-r; i++ {
				short.Advance(bodyLen)
			}
			back.AdvanceRun(k)
			back.RetreatRun(r)
			if !reflect.DeepEqual(short, back) {
				t.Fatalf("trial %d: AdvanceRun(%d) then RetreatRun(%d):\n  got  %+v\n  want %+v", trial, k, r, back, short)
			}
			ran++
		}
	}
	if ran < 5000 || resolved < 1000 {
		t.Fatalf("only %d runs compared, %d with a fill inside: the generator is off", ran, resolved)
	}
}
