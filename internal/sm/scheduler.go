package sm

// Scheduler is one greedy-then-oldest warp scheduler. It owns a fixed
// array of warp slots and the warp-tuple state {N, p}: the N oldest
// active warps carry the vital bit (may be arbitrated), the p oldest
// carry the pollute bit (their loads may allocate L1 lines). This is
// the modified GTO scheduler of paper Fig. 6.
type Scheduler struct {
	ID    int
	Slots []Warp

	ageOrder    []int // active slot indices, oldest (smallest Age) first
	dispatchSeq int64
	current     int // greedy warp slot, -1 when none

	n, p int // the warp-tuple; clamped to [1, len(Slots)] on use

	// wakeHint caches the earliest cycle at which a vital warp could
	// become issueable after a failed Pick, so blocked schedulers cost
	// O(1) per cycle instead of a full scan. NoDep means "blocked on
	// memory": only a fill event (which clears the hint) can help.
	wakeHint int64

	// Stats.
	IssueCycles int64 // cycles this scheduler issued an instruction
	StallCycles int64 // cycles it had active warps but none ready
	IdleCycles  int64 // cycles with no active warps at all
}

// pendRoom is the scoreboard storage a warp slot is built with: more
// loads in flight than this grow the slot's own slice, which it keeps.
const pendRoom = 4

// NewScheduler builds a scheduler with capacity warp slots, initially
// running at maximum TLP (N = p = capacity).
func NewScheduler(id, capacity int) *Scheduler {
	s := &Scheduler{
		ID:       id,
		Slots:    make([]Warp, capacity),
		ageOrder: make([]int, 0, capacity),
		current:  -1,
	}
	pend := make([]Pending, capacity*pendRoom)
	for i := range s.Slots {
		s.Slots[i].Pend = pend[i*pendRoom : i*pendRoom : (i+1)*pendRoom]
	}
	s.n, s.p = capacity, capacity
	return s
}

// Capacity returns the number of warp slots.
func (s *Scheduler) Capacity() int { return len(s.Slots) }

// Reset restores the scheduler to its just-constructed state: empty
// slots, maximum tuple, zeroed age order, greedy pointer and
// statistics. The GPU pool relies on Reset leaving state
// reflect.DeepEqual-identical to NewScheduler: the age order and the
// slots' scoreboards are built empty, not nil, so that emptying them
// here keeps their storage for the next run or restore.
func (s *Scheduler) Reset() {
	for i := range s.Slots {
		s.Slots[i].Reset()
	}
	s.ageOrder = s.ageOrder[:0]
	s.dispatchSeq = 0
	s.current = -1
	s.n, s.p = len(s.Slots), len(s.Slots)
	s.wakeHint = 0
	s.IssueCycles, s.StallCycles, s.IdleCycles = 0, 0, 0
}

// ActiveWarps returns the number of live warps.
func (s *Scheduler) ActiveWarps() int { return len(s.ageOrder) }

// Tuple returns the current {N, p} setting.
func (s *Scheduler) Tuple() (n, p int) { return s.n, s.p }

// SetTuple applies a warp-tuple, clamped by ClampTuple to the
// scheduler's capacity.
func (s *Scheduler) SetTuple(n, p int) {
	s.n, s.p = ClampTuple(len(s.Slots), n, p)
	s.refreshBits()
}

// ClampTuple is the warp-tuple a scheduler of the given capacity
// applies when asked for {n, p}: n clamped to [1, capacity] and p to
// [1, n], mirroring the p <= N constraint of the paper.
func ClampTuple(capacity, n, p int) (int, int) {
	n = min(max(n, 1), capacity)
	return n, min(max(p, 1), n)
}

// refreshBits recomputes vital/pollute bits from age order and {N, p}.
func (s *Scheduler) refreshBits() {
	for i, slot := range s.ageOrder {
		w := &s.Slots[slot]
		w.Vital = i < s.n
		w.Pollute = i < s.p
	}
	// If the greedy warp lost vitality, drop it.
	if s.current >= 0 && !s.Slots[s.current].Vital {
		s.current = -1
	}
	s.wakeHint = 0
}

// WakeHint returns the cached earliest-possible issue cycle (0 = none).
func (s *Scheduler) WakeHint() int64 { return s.wakeHint }

// SetWakeHint caches the next possible issue cycle after a failed Pick.
func (s *Scheduler) SetWakeHint(c int64) { s.wakeHint = c }

// ClearWakeHint invalidates the cache (a fill arrived for one of this
// scheduler's warps, or warp/tuple state changed).
func (s *Scheduler) ClearWakeHint() { s.wakeHint = 0 }

// AccountBlocked adds a span of blocked visits to the stall or idle
// counter in bulk. The dense reference engine increments StallCycles or
// IdleCycles once per visited cycle on every blocked scheduler; the
// ready-queue engine skips those visits entirely and settles the same
// arithmetic here when the span closes, so the counters stay
// bit-identical between the two engines.
func (s *Scheduler) AccountBlocked(visits int64, active bool) {
	if visits <= 0 {
		return
	}
	if active {
		s.StallCycles += visits
	} else {
		s.IdleCycles += visits
	}
}

// Launch places a new warp into a free slot and returns its slot index,
// or -1 if the scheduler is full.
func (s *Scheduler) Launch(global, block, warpInBlk int32, iters int) int {
	slot := -1
	for i := range s.Slots {
		if !s.Slots[i].Active {
			slot = i
			break
		}
	}
	if slot < 0 {
		return -1
	}
	s.dispatchSeq++
	w := &s.Slots[slot]
	// The slot keeps its scoreboard storage from one warp to the next;
	// only Reset gives it back.
	*w = Warp{Pend: w.Pend[:0]}
	w.Active = true
	w.Global = global
	w.Block = block
	w.WarpInBlk = warpInBlk
	w.TotalIters = int32(iters)
	w.Age = s.dispatchSeq
	s.ageOrder = append(s.ageOrder, slot)
	// Age order stays sorted because dispatchSeq is monotonic.
	s.refreshBits()
	return slot
}

// Retire removes the warp in the given slot (it finished).
func (s *Scheduler) Retire(slot int) {
	s.Slots[slot].Active = false
	for i, v := range s.ageOrder {
		if v == slot {
			s.ageOrder = append(s.ageOrder[:i], s.ageOrder[i+1:]...)
			break
		}
	}
	if s.current == slot {
		s.current = -1
	}
	s.refreshBits()
}

// PickOrWake is the scheduler's one pass over its vital warps at cycle
// now. Following GTO it stays with the current warp while that can
// issue, else takes the oldest ready vital warp, and returns its slot.
// When nothing can issue it returns -1 and the earliest cycle a vital
// warp could issue without a fill arriving first: NoDep when every one
// waits on memory or there are no vital warps. wake means nothing when
// a slot is returned.
func (s *Scheduler) PickOrWake(now int64) (slot int, wake int64) {
	if s.current >= 0 {
		w := &s.Slots[s.current]
		if w.Vital && w.CanIssue(now) {
			return s.current, now
		}
	}
	wake = NoDep
	for _, v := range s.ageOrder[:s.VitalCount()] {
		at := s.Slots[v].issueAt()
		if at <= now {
			s.current = v
			return v, now
		}
		if at < wake {
			wake = at
		}
	}
	return -1, wake
}

// Greedy returns the warp the last successful PickOrWake chose.
func (s *Scheduler) Greedy() *Warp { return &s.Slots[s.current] }

// Pick returns the slot PickOrWake chooses, or -1 when nothing can
// issue.
func (s *Scheduler) Pick(now int64) int {
	slot, _ := s.PickOrWake(now)
	return slot
}

// NextWake returns the earliest cycle after now at which a vital warp
// might be issueable, or NoDep when that is unknown (waiting on memory)
// or there are no vital warps.
func (s *Scheduler) NextWake(now int64) int64 {
	wake := NoDep
	for _, slot := range s.ageOrder[:s.VitalCount()] {
		wake = min(wake, s.Slots[slot].NextWake(now))
	}
	return wake
}

// OldestActive returns the slot of the oldest active warp, or -1.
func (s *Scheduler) OldestActive() int {
	if len(s.ageOrder) == 0 {
		return -1
	}
	return s.ageOrder[0]
}

// VitalCount returns how many active warps currently hold the vital bit.
func (s *Scheduler) VitalCount() int {
	if s.n < len(s.ageOrder) {
		return s.n
	}
	return len(s.ageOrder)
}
