package sm

import (
	"testing"

	"poise/internal/config"
	"poise/internal/snap"
	"poise/internal/snap/snaptest"
)

func TestLaunchRetireAgeOrder(t *testing.T) {
	s := NewScheduler(0, 4)
	a := s.Launch(10, 0, 0, 5)
	b := s.Launch(11, 0, 1, 5)
	c := s.Launch(12, 0, 2, 5)
	if a < 0 || b < 0 || c < 0 {
		t.Fatal("launches must succeed")
	}
	if s.ActiveWarps() != 3 {
		t.Fatalf("ActiveWarps = %d", s.ActiveWarps())
	}
	if s.OldestActive() != a {
		t.Fatal("oldest must be the first launched")
	}
	s.Retire(a)
	if s.OldestActive() != b {
		t.Fatal("after retiring the oldest, the second becomes oldest")
	}
	d := s.Launch(13, 1, 0, 5)
	if d != a {
		t.Fatalf("freed slot %d should be reused, got %d", a, d)
	}
	// The recycled warp is youngest despite occupying the oldest slot.
	if s.OldestActive() != b {
		t.Fatal("slot reuse must not confuse age order")
	}
}

func TestLaunchFull(t *testing.T) {
	s := NewScheduler(0, 2)
	s.Launch(1, 0, 0, 1)
	s.Launch(2, 0, 1, 1)
	if s.Launch(3, 0, 2, 1) >= 0 {
		t.Fatal("full scheduler must reject launches")
	}
}

func TestVitalPolluteBits(t *testing.T) {
	s := NewScheduler(0, 4)
	slots := []int{
		s.Launch(1, 0, 0, 5),
		s.Launch(2, 0, 1, 5),
		s.Launch(3, 0, 2, 5),
		s.Launch(4, 0, 3, 5),
	}
	s.SetTuple(2, 1)
	vital, pollute := 0, 0
	for _, sl := range slots {
		if s.Slots[sl].Vital {
			vital++
		}
		if s.Slots[sl].Pollute {
			pollute++
		}
	}
	if vital != 2 || pollute != 1 {
		t.Fatalf("vital=%d pollute=%d, want 2/1", vital, pollute)
	}
	// The two oldest must be the vital ones.
	if !s.Slots[slots[0]].Vital || !s.Slots[slots[1]].Vital {
		t.Fatal("vital bits must go to the oldest warps")
	}
	if !s.Slots[slots[0]].Pollute || s.Slots[slots[1]].Pollute {
		t.Fatal("pollute bit must go to the single oldest")
	}
	// Retiring the oldest promotes the next warp into the vital set.
	s.Retire(slots[0])
	if !s.Slots[slots[2]].Vital {
		t.Fatal("vitality must cascade on retire")
	}
	if !s.Slots[slots[1]].Pollute {
		t.Fatal("pollute must cascade on retire")
	}
}

func TestSetTupleClamps(t *testing.T) {
	s := NewScheduler(0, 4)
	s.SetTuple(0, 0)
	if n, p := s.Tuple(); n != 1 || p != 1 {
		t.Fatalf("clamp low: (%d,%d)", n, p)
	}
	s.SetTuple(99, 99)
	if n, p := s.Tuple(); n != 4 || p != 4 {
		t.Fatalf("clamp high: (%d,%d)", n, p)
	}
	s.SetTuple(3, 4)
	if n, p := s.Tuple(); p > n {
		t.Fatalf("p must be clamped to n: (%d,%d)", n, p)
	}
}

func TestPickGreedyThenOldest(t *testing.T) {
	s := NewScheduler(0, 4)
	a := s.Launch(1, 0, 0, 5)
	b := s.Launch(2, 0, 1, 5)
	// First pick: the oldest ready warp.
	if got := s.Pick(0); got != a {
		t.Fatalf("Pick = %d, want oldest %d", got, a)
	}
	// Greedy: stays on the same warp while it can issue.
	if got := s.Pick(1); got != a {
		t.Fatal("greedy must stick with the current warp")
	}
	// Blocking the current warp falls back to the next oldest.
	s.Slots[a].ReadyAt = 100
	if got := s.Pick(2); got != b {
		t.Fatalf("Pick = %d, want fallback %d", got, b)
	}
	// When the older warp becomes ready again, greedy holds the newer
	// current warp (GTO resumes oldest only on a stall).
	if got := s.Pick(101); got != b {
		t.Fatal("greedy must hold current even when an older warp wakes")
	}
	s.Slots[b].ReadyAt = 200
	if got := s.Pick(102); got != a {
		t.Fatal("stalled current must yield to the oldest ready")
	}
}

func TestPickRespectsVitality(t *testing.T) {
	s := NewScheduler(0, 4)
	a := s.Launch(1, 0, 0, 5)
	b := s.Launch(2, 0, 1, 5)
	s.SetTuple(1, 1)
	s.Slots[a].ReadyAt = 1000 // the only vital warp is blocked
	if got := s.Pick(0); got != -1 {
		t.Fatalf("non-vital warp %d must not be scheduled (got %d)", b, got)
	}
}

func TestWarpDependencyBlocking(t *testing.T) {
	var w Warp
	w.Active = true
	w.FlatIdx = 10
	tok := w.NewToken()
	w.AddPending(Pending{Token: tok, DepFlat: 12})
	if !w.CanIssue(0) {
		t.Fatal("independent instructions may issue under an outstanding load")
	}
	w.Advance(100)
	if !w.CanIssue(0) {
		t.Fatal("the instruction before the dependent one may still issue")
	}
	w.Advance(100)
	if w.CanIssue(0) {
		t.Fatal("reaching the dependent instruction must block")
	}
	if !w.ResolveToken(tok) {
		t.Fatal("token must resolve")
	}
	if !w.CanIssue(0) {
		t.Fatal("resolved load must unblock")
	}
}

func TestWarpHitReturnLazyResolve(t *testing.T) {
	var w Warp
	w.Active = true
	w.FlatIdx = 5
	w.AddPending(Pending{Token: w.NewToken(), DepFlat: 5, RetCycle: 30})
	if w.CanIssue(10) {
		t.Fatal("blocked until the hit returns")
	}
	if !w.CanIssue(30) {
		t.Fatal("hit return must lazily unblock")
	}
}

func TestWarpNextWake(t *testing.T) {
	var w Warp
	w.Active = true
	w.FlatIdx = 5
	w.AddPending(Pending{Token: 1, DepFlat: 5, RetCycle: 40})
	if got := w.NextWake(10); got != 40 {
		t.Fatalf("NextWake = %d, want 40", got)
	}
	w2 := Warp{Active: true, FlatIdx: 5}
	w2.AddPending(Pending{Token: 1, DepFlat: 5}) // miss outstanding
	if got := w2.NextWake(10); got != NoDep {
		t.Fatalf("NextWake = %d, want NoDep for a miss", got)
	}
	w3 := Warp{Active: true, ReadyAt: 25}
	if got := w3.NextWake(10); got != 25 {
		t.Fatalf("NextWake = %d, want ReadyAt", got)
	}
}

func TestWarpAdvance(t *testing.T) {
	w := Warp{Active: true, TotalIters: 2}
	bodyLen := 3
	for i := 0; i < 5; i++ {
		if w.Advance(bodyLen) {
			t.Fatalf("finished too early at step %d", i)
		}
	}
	if !w.Advance(bodyLen) {
		t.Fatal("must finish after 2 iterations x 3 instructions")
	}
}

func TestCountersSubAndDerived(t *testing.T) {
	a := Counters{Instructions: 100, Loads: 10, AMLSum: 500, AMLCount: 5}
	b := Counters{Instructions: 160, Loads: 20, AMLSum: 1500, AMLCount: 10}
	d := b.Sub(a)
	if d.Instructions != 60 || d.Loads != 10 {
		t.Fatalf("Sub wrong: %+v", d)
	}
	if d.AML() != 200 {
		t.Fatalf("AML = %v, want 200", d.AML())
	}
	if d.InstrPerLoad() != 6 {
		t.Fatalf("InstrPerLoad = %v, want 6", d.InstrPerLoad())
	}
	empty := Counters{Instructions: 50}
	if empty.InstrPerLoad() != 50 {
		t.Fatal("loadless window must report Instructions as In")
	}
}

func TestNewSM(t *testing.T) {
	cfg := config.Default().Scale(2)
	s, err := NewSM(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Scheds) != cfg.SchedulersPerSM {
		t.Fatalf("schedulers = %d", len(s.Scheds))
	}
	s.SetTuple(5, 2)
	if n, p := s.Tuple(); n != 5 || p != 2 {
		t.Fatalf("tuple = (%d,%d)", n, p)
	}
	s.PrepareKernel(7)
	if len(s.PCLoads) != 7 || len(s.PCHits) != 7 {
		t.Fatal("PC tables must size to the body")
	}
	s.RecordLoadPC(3, true)
	s.RecordLoadPC(3, false)
	if s.PCLoads[3] != 2 || s.PCHits[3] != 1 {
		t.Fatal("PC stats wrong")
	}
	if s.ShouldBypass(3) {
		t.Fatal("no filter installed yet")
	}
	s.BypassPC = make([]bool, 7)
	s.BypassPC[3] = true
	if !s.ShouldBypass(3) || s.ShouldBypass(2) {
		t.Fatal("bypass filter wrong")
	}
}

// TestSchedulerDecodeRejects: the age order of a restored scheduler
// must be exactly its live slots, oldest first. Each of these decoded
// with a nil error before, after which Retire left a stale entry and
// PickOrWake's scan (which does not test Active) could pick a retired
// slot.
func TestSchedulerDecodeRejects(t *testing.T) {
	live := func() *Scheduler {
		s := NewScheduler(0, 4)
		for i := int32(0); i < 3; i++ {
			s.Launch(i, 0, i, 10)
		}
		return s
	}
	// What the SM's walk does for each of its schedulers.
	restore := func(s *Scheduler, data []byte) error {
		return snaptest.In(func(k snap.Walk) { s.walk(k); k.Check(s.restored) }, data)
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *Scheduler)
	}{
		{"a slot named twice", func(s *Scheduler) { s.ageOrder = []int{0, 1, 1} }},
		{"a slot named twice, all live ones named", func(s *Scheduler) { s.ageOrder = []int{0, 1, 2, 1} }},
		{"a live warp omitted", func(s *Scheduler) { s.ageOrder = []int{0, 2} }},
		{"not in ascending Age", func(s *Scheduler) { s.ageOrder = []int{0, 2, 1} }},
		{"two live warps of one Age", func(s *Scheduler) { s.Slots[2].Age = s.Slots[1].Age }},
		{"a slot without a live warp", func(s *Scheduler) { s.ageOrder = []int{0, 1, 2, 3} }},
		{"a slot the scheduler lacks", func(s *Scheduler) { s.ageOrder = []int{0, 1, 4} }},
	} {
		s := live()
		tc.mutate(s)
		if err := restore(NewScheduler(0, 4), snaptest.Out(s.walk)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Untouched, and after the middle warp retired, the state restores.
	s := live()
	s.Retire(1)
	back := NewScheduler(0, 4)
	if err := restore(back, snaptest.Out(s.walk)); err != nil || back.ActiveWarps() != 2 || back.OldestActive() != 0 {
		t.Fatalf("well-formed state: err %v, %d live warps", err, back.ActiveWarps())
	}
}
