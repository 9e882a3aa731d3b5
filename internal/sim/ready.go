package sim

import (
	"fmt"
	"math/bits"

	"poise/internal/sm"
	"poise/internal/trace"
)

// This file implements the ready-queue cycle engine: the default main
// loop whose per-visit cost is proportional to the number of schedulers
// that could actually issue, instead of O(NumSMs x SchedulersPerSM)
// like the dense reference scan in dense.go.
//
// The engine keeps every scheduler in exactly one of four modes:
//
//   - hot: its wake hint is <= now, so the dense scan would call Pick
//     on it every visited cycle. Hot schedulers form the hot set, a
//     bit-set over keys (SM-major, scheduler-minor); a hot scheduler
//     inside an issue burst is filed on the burst calendar instead
//     until the burst is over (below).
//   - timed: a failed pick produced a finite wake hint. The scheduler
//     sits in a min-heap keyed by that cycle and rejoins the hot set
//     at the first visit at or after it. The heap never drives the
//     clock — the dense loop only jumps to fills, clock markers and
//     policy steps, so the ready engine does too.
//   - dormant: the hint is NoDep ("blocked on memory"); only an
//     explicit wake (fill, replay drain, tuple change, launch) can
//     requeue it.
//   - hot-next: woken mid-visit at a scan position the dense loop has
//     already passed; it joins the hot set at the start of the next
//     visit.
//
// Scan order: a visit attempts the hot set's keys in ascending order,
// which is the order the dense scan's two nested loops reach them in.
// It asks the set for the lowest key above the one just attempted after
// every attempt, reading the word afresh, so a scheduler that the
// attempt woke ahead of the scan position (a retiring warp launches
// blocks all over the machine) is attempted in this visit, at its place
// in the order, as the dense scan would; one woken at or behind the
// position waits as hot-next. A scheduler whose attempt leaves a hint
// beyond now clears its own bit on the spot. A visit therefore costs
// one word read per 64 schedulers plus the attempts it makes: what it
// decides, not what is resident.
//
// The correctness rule is "every wake is an event": every code path
// that lowers a wake hint (completeFill, wakeAllReplayers, SetTuple's
// refreshBits, warp launch and retire) must call requeueSched so the
// scheduler is attempted on every visit where the dense scan's attempt
// could issue. Attempting too eagerly is harmless — issueOne's blocked
// branch reproduces the dense per-visit accounting — but a missed due
// attempt would diverge, so requeueing errs toward waking. Which
// schedulers each path requeues:
//
//   - completeFill: those owning a warp whose token the fill resolved —
//     the merged waiters' and the one admitted replayer's. A hint is a
//     function of the scheduler's own warps only, and the fill changed
//     no other scheduler's warps, so the others' hints are still exact:
//     the dense engine, which clears every hint on the SM, re-attempts
//     them, fails, recomputes the same hint and accounts one blocked
//     visit — what the open span accounts for them here.
//   - wakeAllReplayers: every scheduler of each SM it touched (the
//     drain path runs at most a few times per kernel).
//   - SetTuple: every scheduler of the SM (refreshBits cleared them all).
//   - launch: the scheduler launched onto (noteLaunch); retire: none,
//     the retiring scheduler is the hot one issuing.
//
// The hint itself comes from sm.Scheduler.PickOrWake and is exact: the
// first cycle some vital warp has both its pipeline latency and every
// L1 hit it depends on behind it, or NoDep if each waits on a miss.
// (The scoreboard walk this replaced stopped at a warp's earliest
// blocking hit return, so its hints could be early and cost a failed
// attempt.) How tight a hint is never shows in a result: hints do not
// drive the clock, and a visit accounts the same stall whether it is
// skipped under a hint, settled in a span, or attempted and blocked.
// Each finite hint is a cycle the loop visits anyway — a clock marker
// was set for it when the ALU op or the hit issued, or it is the cycle
// after an issue.
//
// Blocked-cycle accounting: the dense scan bumps StallCycles or
// IdleCycles on every blocked scheduler every visited cycle. For hot
// schedulers issueOne performs exactly that per-visit accounting, so
// the engine tracks spans only for non-hot schedulers: a span opens
// when a scheduler leaves the hot set (spanBase = visit count,
// spanActive = whether it had active warps) and settles arithmetically
// when the scheduler is readmitted, observed by the policy, or the run
// ends. ActiveWarps only changes on launch/retire, which are hooked,
// so the stall-vs-idle split inside a span is constant and the settled
// counters are bit-identical to the dense engine's. Keeping spans off
// the hot path means an attempt costs the same as a dense scan slot —
// the compute-bound regime pays nothing for the queue.
//
// Issue bursts: GTO on a run of independent ALU instructions is
// decided in advance — the greedy warp issues one of them every cycle,
// each ready the cycle after. When issueOne picks a warp standing at
// such a run it applies k = min(aluRun[BodyIdx], Warp.RunRoom())
// instructions at once (both counters, BodyIdx/FlatIdx, ReadyAt = now+k)
// and sets burstEnd[key] = now+k. The first bound keeps the run inside
// the body (wrap-around and retirement stay on the ordinary path), the
// second short of the warp's next scoreboard rebuild. A burst may start
// behind a load: when the instruction issued is a load, the warp did
// not retire and it could issue at now+1 (the load's use is not the
// next instruction, or GTO would not stay with the warp), the run that
// follows is applied in the same step as if it began at now+1, with
// ReadyAt = burstEnd = now+1+k, and the attempt of now+1 is never made.
//
// The burst calendar: the scan sees burstEnd move past now, takes the
// scheduler off the hot set and files it in ring[burstEnd & ringMask],
// a key set per cycle; bursting counts the schedulers filed. Until the
// burst is over no visit touches the scheduler: a visit starts with
// anyIssued = bursting > 0 — every burst in flight is an issue of this
// cycle — so the loop visits exactly the cycles it would have, and
// admit moves ring[now & ringMask] back onto the hot set at the visit
// of the cycle the burst ends, where the scheduler is attempted again.
// While a burst is in flight the clock advances one cycle a visit, so
// no slot is passed over; aluRun saturates at maxBurst so that no burst
// outlasts the ring. A bursting scheduler stays in mode hot: wakes,
// launches and span flushes treat it as the hot scheduler it is.
//
// Nothing outside the scheduler can end a burst early in the dense
// engine either: a fill for another of its warps does not dislodge the
// greedy warp (a fill for the greedy warp itself resolves a load whose
// use lies beyond the run), a launch appends younger warps and leaves
// the vital bits of the older ones alone, warps retire only by issuing,
// and SetTuple is called only from Policy.KernelStart and Policy.Step.
// That leaves one rule, the one spans already follow: settle before
// anyone observes. settleBursts takes back the part of every burst that
// is not due yet, by plain arithmetic, hands the scheduler back to the
// hot set and empties the calendar, wherever flushAllSpans runs: before
// Policy.Step, at an interrupt (so a snapshot holds the
// dense-equivalent state and neither burstEnd nor the calendar is ever
// serialised) and on every return path that can have a burst in flight.
// Step and the interrupt check run before the scan of cycle now, so
// they settle to the top of now; the MaxCycles return comes after it
// and settles to the top of now+1, keeping the issue of this cycle.
// EngineDense never bursts (aluRun is empty outside a ready-engine run)
// and stays the specification the equivalence suites compare against.

type schedMode uint8

const (
	schedDormant schedMode = iota
	schedTimed
	schedHot
	schedHotNext
)

// schedEntry is one timed wake: scheduler key due at cycle.
type schedEntry struct {
	cycle int64
	key   int32
}

// schedHeap is a binary min-heap of timed scheduler wakes ordered by
// cycle. Entries are invalidated lazily: an entry is live only while
// its scheduler is still timed with the same wake cycle.
type schedHeap struct {
	a []schedEntry
}

func (h *schedHeap) push(e schedEntry) {
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

func (h *schedHeap) pop() schedEntry {
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

// readyQueue is the per-GPU state of the ready-queue engine. It is
// sized once at construction and reused across runs; Reset truncates
// the variable-length parts so a pooled GPU stays DeepEqual-identical
// to a fresh one.
type readyQueue struct {
	active bool  // a ready-engine run is in progress (gates the hooks)
	perSM  int32 // schedulers per SM, for key <-> (sm, sched) mapping

	// Indexed by key = smID*perSM + schedID.
	smOf       []*sm.SM        // flattened key -> SM lookup
	schedOf    []*sm.Scheduler // flattened key -> scheduler lookup
	mode       []schedMode
	wakeAt     []int64 // valid while mode == schedTimed
	spanBase   []int64 // visits settled so far; meaningful while not hot
	spanActive []bool  // ActiveWarps() > 0 over the open span

	// Key sets, bit key&63 of word key>>6. hot holds the keys attempted
	// every visit, woken the hot-next keys buffered until the next one.
	hot   []uint64
	woken []uint64
	timed schedHeap

	// scanKey is the key currently being attempted during the issue
	// scan (-1 outside it). Wake hooks compare against it to decide
	// whether a newly woken scheduler is still ahead of the dense scan
	// position (attempt it this visit) or behind it (next visit).
	scanKey int32

	// visits counts visited cycles this run; spans are measured in it.
	visits int64

	// Issue bursts (see the header). aluRun[i] is the length of the run
	// of independent ALU instructions starting at body position i, never
	// counting the body's last instruction and saturating at maxBurst (a
	// longer run takes more than one burst); it is empty outside a run
	// that may burst. burstEnd[key] is the cycle the scheduler's burst
	// is over: a value at or below now means none is in flight. The
	// calendar ring holds one key set per cycle, ring[(c&ringMask)*words:]
	// the schedulers whose burst is over at cycle c, and bursting counts
	// the keys in it.
	aluRun   []uint8
	burstEnd []int64
	ring     []uint64
	bursting int
}

// The calendar has a slot for every cycle a burst can end on: a burst
// started at cycle c ends by c+maxBurst, or by c+1+maxBurst = c+ringSlots
// behind a load — the slot of c itself, which admit emptied before the
// scan of c began.
const (
	ringSlots = 64
	ringMask  = ringSlots - 1
	maxBurst  = ringSlots - 1
)

// minBurst is the shortest run worth a burst. A burst of 2 saves one
// issueOne and costs one burstEnd write and one skipped slot. Floors of
// 2 and 3 measured alike where bodies burst by 2 at most (three
// alternating bench/run.sh passes, seed 23: sim_membound 168-179 against
// 174-175 ns per simulated cycle, fig7_mini 93-98 against 94-97), so
// the floor is the smallest burst there is.
const minBurst = 2

// init sizes the queue for the GPU's schedulers (which must already be
// constructed).
func (rq *readyQueue) init(g *GPU) {
	perSM := g.Cfg.SchedulersPerSM
	n := len(g.SMs) * perSM
	rq.perSM = int32(perSM)
	rq.smOf = make([]*sm.SM, 0, n)
	rq.schedOf = make([]*sm.Scheduler, 0, n)
	for _, s := range g.SMs {
		for _, sch := range s.Scheds {
			rq.smOf = append(rq.smOf, s)
			rq.schedOf = append(rq.schedOf, sch)
		}
	}
	rq.mode = make([]schedMode, n)
	rq.wakeAt = make([]int64, n)
	rq.spanBase = make([]int64, n)
	rq.spanActive = make([]bool, n)
	words := (n + 63) / 64
	rq.hot = make([]uint64, words)
	rq.woken = make([]uint64, words)
	rq.timed.a = make([]schedEntry, 0, n)
	rq.scanKey = -1
	rq.aluRun = make([]uint8, 0)
	rq.burstEnd = make([]int64, n)
	rq.ring = make([]uint64, ringSlots*words)
}

// empty takes every scheduler out of the queue (storage retained).
func (rq *readyQueue) empty() {
	clear(rq.hot)
	clear(rq.woken)
	rq.timed.a = rq.timed.a[:0]
	rq.scanKey = -1
	clear(rq.burstEnd)
	clear(rq.ring)
	rq.bursting = 0
}

// resetState restores the just-constructed state (capacity retained).
func (rq *readyQueue) resetState() {
	rq.active = false
	for i := range rq.mode {
		rq.mode[i] = schedDormant
		rq.wakeAt[i] = 0
		rq.spanBase[i] = 0
		rq.spanActive[i] = false
	}
	rq.empty()
	rq.visits = 0
	rq.aluRun = rq.aluRun[:0]
}

// flushSpan settles the open blocked span of one non-hot scheduler up
// to (and including) visit uptoV.
func (rq *readyQueue) flushSpan(key int32, uptoV int64) {
	if d := uptoV - rq.spanBase[key]; d > 0 {
		rq.schedOf[key].AccountBlocked(d, rq.spanActive[key])
		rq.spanBase[key] = uptoV
	}
}

// setHot puts a scheduler that is not hot onto the hot set, closing its
// blocked span: the current visit is accounted by the attempt, so the
// span ends at the previous one.
func (rq *readyQueue) setHot(key int32) {
	rq.flushSpan(key, rq.visits-1)
	rq.mode[key] = schedHot
	rq.hot[key>>6] |= 1 << (key & 63)
}

// admit moves onto the hot set every timed scheduler due at or before
// now, the hot-next stragglers of the previous visit, and the schedulers
// whose burst is over at now.
func (rq *readyQueue) admit(now int64) {
	for len(rq.timed.a) > 0 && rq.timed.a[0].cycle <= now {
		e := rq.timed.pop()
		if rq.mode[e.key] == schedTimed && rq.wakeAt[e.key] == e.cycle {
			rq.setHot(e.key)
		}
	}
	due := rq.ring[int(now&ringMask)*len(rq.hot):][:len(rq.hot)]
	for wi := range rq.hot {
		for w := rq.woken[wi]; w != 0; w &= w - 1 {
			rq.setHot(int32(wi<<6 + bits.TrailingZeros64(w)))
		}
		rq.woken[wi] = 0
		rq.hot[wi] |= due[wi]
		rq.bursting -= bits.OnesCount64(due[wi])
		due[wi] = 0
	}
}

// nextHot returns the lowest hot key at or above from, -1 when there is
// none. The scan asks again after every attempt, so a scheduler the
// attempt woke ahead of scanKey is still attempted this visit.
func (rq *readyQueue) nextHot(from int32) int32 {
	pos := from & 63
	for wi := int(from >> 6); wi < len(rq.hot); wi++ {
		if w := rq.hot[wi] >> pos << pos; w != 0 {
			return int32(wi<<6 + bits.TrailingZeros64(w))
		}
		pos = 0
	}
	return -1
}

// fileBurst takes a hot scheduler that began a burst off the hot set and
// files it on the calendar under the cycle the burst is over.
func (rq *readyQueue) fileBurst(key int32, end int64) {
	rq.hot[key>>6] &^= 1 << (key & 63)
	rq.ring[int(end&ringMask)*len(rq.hot)+int(key>>6)] |= 1 << (key & 63)
	rq.bursting++
}

// leaveHot takes a hot scheduler whose attempt left wake hint h > now
// off the hot set, opening its blocked span after this visit (issueOne
// accounted this one).
func (rq *readyQueue) leaveHot(key int32, h int64, active bool) {
	rq.hot[key>>6] &^= 1 << (key & 63)
	rq.spanBase[key] = rq.visits
	rq.spanActive[key] = active
	if h == sm.NoDep {
		rq.mode[key] = schedDormant
	} else {
		rq.mode[key] = schedTimed
		rq.wakeAt[key] = h
		rq.timed.push(schedEntry{cycle: h, key: key})
	}
}

// flushAllSpans settles every non-hot scheduler's blocked span through
// visit uptoV. Hot schedulers have no open span — issueOne accounted
// their visits directly. Called before the policy observes counters and
// before any return path, so counter state is always dense-identical at
// observation points.
func (g *GPU) flushAllSpans(uptoV int64) {
	rq := &g.rq
	for key := int32(0); key < int32(len(rq.mode)); key++ {
		if rq.mode[key] != schedHot {
			rq.flushSpan(key, uptoV)
		}
	}
}

// buildRuns fills aluRun: how far a burst may run from each body
// position.
func (rq *readyQueue) buildRuns(body []trace.Instr) {
	rq.aluRun = append(rq.aluRun, make([]uint8, len(body))...)
	for i := len(body) - 2; i >= 0; i-- {
		if body[i].Kind == trace.OpALU && !body[i].DepALU {
			rq.aluRun[i] = min(rq.aluRun[i+1]+1, maxBurst)
		}
	}
}

// settleBursts takes back the part of every burst not due by the top
// of cycle upto, leaving the dense-equivalent state: the greedy warp
// where it would stand after issuing at each cycle before upto, free to
// issue (and burst again) at upto, its scheduler on the hot set and the
// calendar empty. Every burstEnd is left at zero. A burst over at upto
// itself is still on the calendar when settle runs ahead of admit, and
// a scheduler whose burst admit drained keeps its burstEnd and may have
// left the hot set since — hence the mode test.
func (g *GPU) settleBursts(upto int64) {
	rq := &g.rq
	for key, end := range rq.burstEnd {
		if end == 0 {
			continue
		}
		if r := end - upto; r > 0 {
			sch := rq.schedOf[key]
			w := sch.Greedy()
			w.RetreatRun(r)
			w.ReadyAt = upto
			sch.IssueCycles -= r
			rq.smOf[key].C.Instructions -= r
		}
		if rq.mode[key] == schedHot {
			rq.ring[int(end&ringMask)*len(rq.hot)+key>>6] &^= 1 << (key & 63)
			rq.hot[key>>6] |= 1 << (key & 63)
		}
		rq.burstEnd[key] = 0
	}
	rq.bursting = 0
}

// requeueSched is the "every wake is an event" hook: any code path
// that may have lowered a scheduler's wake hint calls it. No-op for
// the dense engine (rq.active false) and for already-hot schedulers.
func (g *GPU) requeueSched(s *sm.SM, schedID int) {
	rq := &g.rq
	if !rq.active {
		return
	}
	rq.requeue(int32(s.ID)*rq.perSM + int32(schedID))
}

func (rq *readyQueue) requeue(key int32) {
	switch rq.mode[key] {
	case schedHot, schedHotNext:
		return
	}
	if key > rq.scanKey && rq.scanKey >= 0 {
		// The dense scan has not reached this scheduler yet this visit:
		// it would see the lowered hint and attempt it now.
		rq.setHot(key)
		return
	}
	rq.mode[key] = schedHotNext
	rq.woken[key>>6] |= 1 << (key & 63)
}

// wakeSched clears the wake hint of one scheduler (a token of one of
// its warps was resolved) and requeues it.
func (g *GPU) wakeSched(s *sm.SM, schedID int) {
	s.Scheds[schedID].ClearWakeHint()
	g.requeueSched(s, schedID)
}

// wakeSMScheds wakes every scheduler on an SM.
func (g *GPU) wakeSMScheds(s *sm.SM) {
	for i := range s.Scheds {
		g.wakeSched(s, i)
	}
}

// noteLaunch records that a warp launched onto scheduler schedID of SM
// s mid-run: the launch refreshed vital bits and cleared the wake
// hint, and it changed ActiveWarps, so an open blocked span must be
// settled at the dense-equivalent boundary before the stall/idle split
// changes. Hot schedulers need nothing — their visits are accounted by
// issueOne, and a retiring scheduler (the only way warps disappear) is
// by construction the hot one currently issuing.
func (g *GPU) noteLaunch(s *sm.SM, schedID int) {
	rq := &g.rq
	if !rq.active {
		return
	}
	key := int32(s.ID)*rq.perSM + int32(schedID)
	if rq.mode[key] == schedHot {
		return
	}
	if key > rq.scanKey && rq.scanKey >= 0 {
		// Not yet scanned this visit: the dense loop would attempt it
		// after the launch, so the blocked span ends at the previous
		// visit and this visit's accounting comes from the attempt.
		rq.flushSpan(key, rq.visits-1)
	} else {
		// Already behind the scan position (or outside the scan): the
		// dense loop visited it this cycle in its pre-launch state, so
		// the span includes the current visit under the old split.
		rq.flushSpan(key, rq.visits)
	}
	rq.spanActive[key] = s.Scheds[schedID].ActiveWarps() > 0
	g.requeueSched(s, schedID)
}

// start classifies every scheduler by the wake hint it carries into the
// run: a fresh one (visits 0, g.now 0) or the rest of one restored
// mid-kernel. Warm multi-kernel workloads deliberately keep stale hints
// across kernels (PrepareKernel does not clear them; only a launch onto
// the scheduler does), and the dense loop honours them, so the engine
// must too. The classification is the dense-equivalent one at cycle
// g.now: a hint at or before now means the dense scan would attempt the
// scheduler this cycle (hot — this also covers timed wakes that came
// due exactly at an interrupt point, which admit would have promoted
// at the top of the interrupted visit), NoDep means only a fill can
// help (dormant), anything else is a timed wake. Spans start at the
// given visit count: the interrupt path settled every open span through
// that visit, so the arithmetic continues exactly where the
// uninterrupted run's would.
func (rq *readyQueue) start(g *GPU, visits int64) {
	rq.active = true
	rq.visits = visits
	rq.empty()
	for key, sch := range rq.schedOf {
		rq.spanBase[key] = visits
		rq.spanActive[key] = sch.ActiveWarps() > 0
		switch h := sch.WakeHint(); {
		case h <= g.now:
			rq.mode[key] = schedHot
			rq.hot[key>>6] |= 1 << (key & 63)
		case h == sm.NoDep:
			rq.mode[key] = schedDormant
		default:
			rq.mode[key] = schedTimed
			rq.wakeAt[key] = h
			rq.timed.push(schedEntry{cycle: h, key: int32(key)})
		}
	}
}

// runReady executes the kernel on the ready-queue engine. It visits
// exactly the cycles the dense reference engine visits (the clock only
// jumps to events and policy steps), but each visit touches only the
// hot schedulers; everything else is settled by span arithmetic, so
// every result and counter is bit-identical to runDense.
func (g *GPU) runReady(k *trace.Kernel, p Policy, opts RunOptions, policyNext int64) (KernelResult, error) {
	rq := &g.rq
	rq.start(g, 0)
	rq.buildRuns(k.Body)
	defer rq.deactivate()
	return g.readyLoop(k, p, opts, policyNext)
}

// readyLoop is the engine's cycle loop, shared by fresh runs and
// restored ones (after start). An interrupt is
// honoured at the top of the loop, before the next visit begins: spans
// settle through the last completed visit and the pending policy
// activation is parked in g.policyNext, so the GPU holds exactly the
// dense-equivalent state of the first unvisited cycle and a snapshot
// taken here restores to a bit-identical continuation.
func (g *GPU) readyLoop(k *trace.Kernel, p Policy, opts RunOptions, policyNext int64) (KernelResult, error) {
	rq := &g.rq
	for g.doneWarp < g.total {
		if opts.Interrupt.due(g.now) {
			g.flushAllSpans(rq.visits)
			g.settleBursts(g.now)
			g.policyNext = policyNext
			return KernelResult{}, ErrInterrupted
		}
		rq.visits++
		// Deliver due events (fills requeue woken schedulers).
		g.deliverDue()
		if p != nil && g.now >= policyNext {
			// Settle spans so the policy observes exactly the counters
			// the dense engine would show it at this cycle.
			g.flushAllSpans(rq.visits - 1)
			g.settleBursts(g.now)
			policyNext = p.Step(g, g.now)
			if policyNext <= g.now {
				policyNext = g.now + 1
			}
		}
		rq.admit(g.now)

		// Every burst in flight issues this cycle; the hot schedulers are
		// attempted in ascending key order, dense scan order.
		anyIssued := rq.bursting > 0
		for key := rq.nextHot(0); key >= 0; key = rq.nextHot(key + 1) {
			s, sch := rq.smOf[key], rq.schedOf[key]
			rq.scanKey = key
			if g.issueOne(s, sch) {
				anyIssued = true
				if end := rq.burstEnd[key]; end > g.now {
					rq.fileBurst(key, end)
				}
			} else if h := sch.WakeHint(); h > g.now {
				rq.leaveHot(key, h, sch.ActiveWarps() > 0)
			}
		}
		rq.scanKey = -1

		if g.now >= opts.MaxCycles {
			g.flushAllSpans(rq.visits)
			// After the scan: every burst keeps its issue of this cycle.
			g.settleBursts(g.now + 1)
			return KernelResult{}, fmt.Errorf("sim: kernel %s exceeded %d cycles", k.Name, opts.MaxCycles)
		}

		if anyIssued {
			g.now++
			continue
		}
		// No hot scheduler issued: jump exactly where the dense loop
		// would. Timed scheduler wakes never drive the clock — finite
		// wake hints always coincide with a clock marker or follow an
		// issue.
		next := min(g.nextEventCycle(), policyNext)
		if next == Never {
			if g.wakeAllReplayers() {
				g.now++
				continue
			}
			if g.doneWarp < g.total {
				// Nothing issued, so no burst is in flight to settle.
				g.flushAllSpans(rq.visits)
				return KernelResult{}, fmt.Errorf("sim: deadlock at cycle %d in %s (%d/%d warps done)",
					g.now, k.Name, g.doneWarp, g.total)
			}
			break
		}
		if next <= g.now {
			next = g.now + 1
		}
		g.now = next
	}

	g.flushAllSpans(rq.visits)
	g.settleBursts(g.now)
	return g.collect(k), nil
}

func (rq *readyQueue) deactivate() {
	rq.active = false
	rq.aluRun = rq.aluRun[:0]
}
