package sim

// Two structures let the main loop jump over stretches where every warp
// is blocked: any state change that could make a warp issueable again
// is either a fill in the fill queue or a clock marker in the wake
// ring, and the loop visits the earliest of them.

// eventKind tags an event in a snapshot payload, which lists fills and
// clock markers in one sequence.
type eventKind uint8

const (
	// evWake is a clock marker (wakeRing): the cycle is visited, the
	// warp state behind it resolves lazily.
	evWake eventKind = iota
	// evFill completes an L1 miss (fillQueue): release the MSHR, fill
	// the cache, wake all merged waiters, account AML.
	evFill
)

// event is one L1 fill due at cycle.
type event struct {
	cycle int64
	sm    int32
	line  uint64 // line address keying the MSHR
}

// wakeRing holds the clock markers: cycles the loop must visit because
// a dependent ALU result or an L1 hit returns then. A marker carries no
// payload and lies at most horizon = max(ALULatency, L1HitLatency)
// cycles ahead, so a ring of one flag per cycle replaces a heap entry
// per marker, and markers for the same cycle collapse into one flag.
// The ring is longer than the horizon, so the flags of now..now+horizon
// never alias; the loop clears a cycle's flag when it visits it.
type wakeRing struct {
	flags   []bool // indexed by cycle & mask
	mask    int64
	horizon int64
	marked  int // flags set
}

func (r *wakeRing) init(horizon int) {
	size := 1
	for size <= horizon {
		size <<= 1
	}
	r.flags = make([]bool, size)
	r.mask = int64(size - 1)
	r.horizon = int64(horizon)
}

// mark asks for cycle to be visited. It must lie within horizon of the
// cycle being visited (snapshot decode checks; issue guarantees it).
func (r *wakeRing) mark(cycle int64) {
	if f := &r.flags[cycle&r.mask]; !*f {
		*f = true
		r.marked++
	}
}

// visit clears the marker of the cycle being visited.
func (r *wakeRing) visit(now int64) {
	if f := &r.flags[now&r.mask]; *f {
		*f = false
		r.marked--
	}
}

// has reports whether cycle (within horizon of the cycle being visited)
// is marked.
func (r *wakeRing) has(cycle int64) bool { return r.flags[cycle&r.mask] }

// next returns the earliest marked cycle after now, or Never.
func (r *wakeRing) next(now int64) int64 {
	if r.marked == 0 {
		return Never
	}
	for c := now + 1; c <= now+r.horizon; c++ {
		if r.has(c) {
			return c
		}
	}
	return Never
}

func (r *wakeRing) reset() {
	if r.marked != 0 {
		clear(r.flags)
		r.marked = 0
	}
}

// fillQueue holds the fills in flight: one FIFO ring per SM and the
// earliest cycle over all of them. It rests on two things the timing
// model guarantees. noc.Crossbar.Response serialises each SM's response
// port, so the fills of one SM come back on strictly increasing cycles
// in the order they were requested: pushing at the tail keeps each ring
// sorted, and the global minimum is the minimum over the ring heads.
// And every fill in flight holds one of its SM's MSHRs, so a ring of
// L1.MSHRs slots never overflows; a push beyond that is a bug and
// panics rather than growing storage with the run. Fills of one cycle
// pop lowest SM first. Any order would do: they belong to different SMs
// and completeFill touches only its own SM.
type fillQueue struct {
	slots []fill  // SM sm's ring is slots[sm*perSM : (sm+1)*perSM]
	head  []int32 // per SM: ring position of its oldest fill
	count []int32 // per SM: fills in flight
	due   []int64 // per SM: cycle of its oldest fill, Never when none
	perSM int32
	min   int64 // min over due
}

// fill is one ring slot; the SM is implied by the ring.
type fill struct {
	cycle int64
	line  uint64
}

func (q *fillQueue) init(numSMs, perSM int) {
	q.slots = make([]fill, numSMs*perSM)
	q.head = make([]int32, numSMs)
	q.count = make([]int32, numSMs)
	q.due = make([]int64, numSMs)
	q.perSM = int32(perSM)
	q.reset()
}

// len returns the number of fills in flight over all SMs.
func (q *fillQueue) len() int {
	n := 0
	for _, c := range q.count {
		n += int(c)
	}
	return n
}

// at returns the i-th oldest fill of SM sm.
func (q *fillQueue) at(sm, i int32) *fill {
	pos := q.head[sm] + i
	if pos >= q.perSM {
		pos -= q.perSM
	}
	return &q.slots[sm*q.perSM+pos]
}

// push queues a fill behind the others of its SM; its cycle must be
// later than theirs.
func (q *fillQueue) push(e event) {
	if q.count[e.sm] == q.perSM {
		panic("sim: more fills in flight for one SM than it has MSHRs")
	}
	*q.at(e.sm, q.count[e.sm]) = fill{cycle: e.cycle, line: e.line}
	if q.count[e.sm]++; q.count[e.sm] == 1 {
		q.due[e.sm] = e.cycle
		q.min = min(q.min, e.cycle)
	}
}

// insert queues a fill at its place by cycle among those of its SM.
// Snapshot decode uses it: containers written while fills sat in one
// binary heap list them in heap-array order, which is not cycle order
// within an SM. On the current SM-major, oldest-first order it never
// shifts.
func (q *fillQueue) insert(e event) {
	q.push(e)
	i := q.count[e.sm] - 1
	for ; i > 0 && q.at(e.sm, i-1).cycle > e.cycle; i-- {
		*q.at(e.sm, i) = *q.at(e.sm, i-1)
	}
	*q.at(e.sm, i) = fill{cycle: e.cycle, line: e.line}
	q.due[e.sm] = q.at(e.sm, 0).cycle
	q.min = min(q.min, e.cycle)
}

// next returns the cycle of the earliest fill, or Never.
func (q *fillQueue) next() int64 { return q.min }

// pop removes the earliest fill (there must be one).
func (q *fillQueue) pop() event {
	sm := int32(0)
	for q.due[sm] != q.min {
		sm++
	}
	f := *q.at(sm, 0)
	if q.head[sm]++; q.head[sm] == q.perSM {
		q.head[sm] = 0
	}
	if q.count[sm]--; q.count[sm] == 0 {
		q.due[sm] = Never
	} else {
		q.due[sm] = q.at(sm, 0).cycle
	}
	q.min = Never
	for _, c := range q.due {
		q.min = min(q.min, c)
	}
	return event{cycle: f.cycle, sm: sm, line: f.line}
}

// reset empties the queue and zeroes the rings, so a pooled GPU stays
// DeepEqual-identical to a fresh one.
func (q *fillQueue) reset() {
	clear(q.slots)
	clear(q.head)
	clear(q.count)
	for i := range q.due {
		q.due[i] = Never
	}
	q.min = Never
}
