package sim

// Two structures let the main loop jump over stretches where every warp
// is blocked: any state change that could make a warp issueable again
// is either a fill in the event heap or a clock marker in the wake
// ring, and the loop visits the earliest of them.

// eventKind tags an event in a snapshot payload, which lists fills and
// clock markers in one sequence.
type eventKind uint8

const (
	// evWake is a clock marker (wakeRing): the cycle is visited, the
	// warp state behind it resolves lazily.
	evWake eventKind = iota
	// evFill completes an L1 miss (eventHeap): release the MSHR, fill
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

// eventHeap is a binary min-heap of fills ordered by cycle. A
// hand-rolled heap avoids the interface boxing of container/heap. The
// order in which fills of one cycle pop depends on the heap's shape and
// is not defined; it need not be, because they always belong to
// different SMs (noc.Crossbar.Response serialises each SM's response
// port) and completeFill touches only its own SM.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(e event) {
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

// next returns the cycle of the earliest fill, or Never.
func (h *eventHeap) next() int64 {
	if len(h.a) == 0 {
		return Never
	}
	return h.a[0].cycle
}

func (h *eventHeap) pop() event {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	n := last
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.a[l].cycle < h.a[smallest].cycle {
			smallest = l
		}
		if r < n && h.a[r].cycle < h.a[smallest].cycle {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return top
}

func (h *eventHeap) reset() { h.a = h.a[:0] }
