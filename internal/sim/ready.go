package sim

import (
	"fmt"
	"math"

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
//     on it every visited cycle. Hot schedulers live in a list sorted
//     by (SM, scheduler) so attempts happen in dense scan order.
//   - timed: a failed pick produced a finite wake hint. The scheduler
//     sits in a min-heap keyed by that cycle and rejoins the hot list
//     at the first visit at or after it. The heap never drives the
//     clock — the dense loop only jumps to fills, clock markers and
//     policy steps, so the ready engine does too.
//   - dormant: the hint is NoDep ("blocked on memory"); only an
//     explicit wake (fill, replay drain, tuple change, launch) can
//     requeue it.
//   - hot-next: woken mid-visit at a scan position the dense loop has
//     already passed; it joins the hot list at the start of the next
//     visit.
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
// when a scheduler leaves the hot list (spanBase = visit count,
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
// and sets burstEnd[key] = now+k; until then the scan skips the
// scheduler with one compare and counts the visit as an issue, so the
// loop visits exactly the cycles it would have. The first bound keeps
// the run inside the body (wrap-around and retirement stay on the
// ordinary path), the second short of the warp's next scoreboard
// rebuild. Nothing outside the scheduler can end a burst early in the
// dense engine either: a fill for another of its warps does not
// dislodge the greedy warp (a fill for the greedy warp itself resolves
// a load whose use lies beyond the run), a launch appends younger warps
// and leaves the vital bits of the older ones alone, warps retire only
// by issuing, and SetTuple is called only from Policy.KernelStart and
// Policy.Step. That leaves one rule, the one spans already follow:
// settle before anyone observes. settleBursts takes back the part of
// every burst that is not due yet, by plain arithmetic, wherever
// flushAllSpans runs: before Policy.Step, at an interrupt (so a
// snapshot holds the dense-equivalent state and burstEnd is never
// serialised) and on every return path. Step and the interrupt check
// run before the scan of cycle now, so they settle to the top of now;
// the MaxCycles and deadlock returns come after it and settle to the
// top of now+1, keeping the issue of this cycle. EngineDense never
// bursts (aluRun is empty outside a ready-engine run) and stays the
// specification the equivalence suites compare against.

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

	hot   []int32 // keys attempted every visit, sorted ascending
	woken []int32 // hot-next keys buffered until the next visit
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
	// counting the body's last instruction and saturating at 255 (a
	// longer run takes more than one burst; a byte per instruction keeps
	// the table a fresh GPU allocates small); it is empty outside a run
	// that may burst. burstEnd[key] is the cycle the scheduler's burst
	// is over: a value at or below now means none is in flight.
	aluRun   []uint8
	burstEnd []int64
}

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
	rq.hot = make([]int32, 0, n)
	rq.woken = make([]int32, 0, n)
	rq.timed.a = make([]schedEntry, 0, n)
	rq.scanKey = -1
	rq.aluRun = make([]uint8, 0)
	rq.burstEnd = make([]int64, n)
}

// resetState restores the just-constructed state (capacity retained).
func (rq *readyQueue) resetState() {
	rq.active = false
	for i := range rq.mode {
		rq.mode[i] = schedDormant
		rq.wakeAt[i] = 0
		rq.spanBase[i] = 0
		rq.spanActive[i] = false
		rq.burstEnd[i] = 0
	}
	rq.hot = rq.hot[:0]
	rq.woken = rq.woken[:0]
	rq.timed.a = rq.timed.a[:0]
	rq.scanKey = -1
	rq.visits = 0
	rq.aluRun = rq.aluRun[:0]
}

// insertHot adds key to the sorted hot list (the caller has checked it
// is absent). Manual binary-insert keeps this allocation-free.
func (rq *readyQueue) insertHot(key int32) {
	a := rq.hot
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rq.hot = append(a, 0)
	copy(rq.hot[lo+1:], rq.hot[lo:])
	rq.hot[lo] = key
}

// flushSpan settles the open blocked span of one non-hot scheduler up
// to (and including) visit uptoV.
func (rq *readyQueue) flushSpan(key int32, uptoV int64) {
	if d := uptoV - rq.spanBase[key]; d > 0 {
		rq.schedOf[key].AccountBlocked(d, rq.spanActive[key])
		rq.spanBase[key] = uptoV
	}
}

// admit moves every timed scheduler due at or before now, plus any
// hot-next stragglers from the previous visit, onto the hot list,
// closing their blocked spans: the current visit is accounted by the
// attempt, so the span ends at the previous one.
func (rq *readyQueue) admit(now int64) {
	for len(rq.timed.a) > 0 && rq.timed.a[0].cycle <= now {
		e := rq.timed.pop()
		if rq.mode[e.key] == schedTimed && rq.wakeAt[e.key] == e.cycle {
			rq.mode[e.key] = schedHotNext
			rq.woken = append(rq.woken, e.key)
		}
	}
	if len(rq.woken) == 0 {
		return
	}
	for _, key := range rq.woken {
		if rq.mode[key] == schedHotNext {
			rq.flushSpan(key, rq.visits-1)
			rq.mode[key] = schedHot
			rq.insertHot(key)
		}
	}
	rq.woken = rq.woken[:0]
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

// buildRuns fills aluRun for a run that may burst. A run with an
// instruction cap does not: totalInstructions is read every visit and
// must not see issues applied ahead of the cycle.
func (rq *readyQueue) buildRuns(body []trace.Instr, opts RunOptions) {
	if opts.MaxInstructions > 0 {
		return
	}
	rq.aluRun = append(rq.aluRun, make([]uint8, len(body))...)
	for i := len(body) - 2; i >= 0; i-- {
		if body[i].Kind == trace.OpALU && !body[i].DepALU {
			rq.aluRun[i] = rq.aluRun[i+1] + min(1, math.MaxUint8-rq.aluRun[i+1])
		}
	}
}

// settleBursts takes back the part of every burst not due by the top
// of cycle upto, leaving the dense-equivalent state: the greedy warp
// where it would stand after issuing at each cycle before upto, free to
// issue (and burst again) at upto. Every burstEnd is left at zero.
func (g *GPU) settleBursts(upto int64) {
	rq := &g.rq
	for key, end := range rq.burstEnd {
		if r := end - upto; r > 0 {
			sch := rq.schedOf[key]
			w := sch.Greedy()
			w.RetreatRun(r)
			w.ReadyAt = upto
			sch.IssueCycles -= r
			rq.smOf[key].C.Instructions -= r
		}
		rq.burstEnd[key] = 0
	}
}

// requeueSched is the "every wake is an event" hook: any code path
// that may have lowered a scheduler's wake hint calls it. No-op for
// the dense engine (rq.active false) and for already-hot schedulers.
func (g *GPU) requeueSched(s *sm.SM, schedID int) {
	rq := &g.rq
	if !rq.active {
		return
	}
	key := int32(s.ID)*rq.perSM + int32(schedID)
	switch rq.mode[key] {
	case schedHot, schedHotNext:
		return
	}
	if key > rq.scanKey && rq.scanKey >= 0 {
		// The dense scan has not reached this scheduler yet this visit:
		// it would see the lowered hint and attempt it now. The attempt
		// accounts this visit, so the span ends at the previous one.
		rq.flushSpan(key, rq.visits-1)
		rq.mode[key] = schedHot
		rq.insertHot(key)
		return
	}
	rq.mode[key] = schedHotNext
	rq.woken = append(rq.woken, key)
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

// startReady classifies every scheduler by the wake hint it carries
// into the run. Warm multi-kernel workloads deliberately keep stale
// hints across kernels (PrepareKernel does not clear them; only a
// launch onto the scheduler does), and the dense loop honours them, so
// the engine must too.
func (rq *readyQueue) startReady(g *GPU) {
	rq.active = true
	rq.visits = 0
	rq.scanKey = -1
	rq.hot = rq.hot[:0]
	rq.woken = rq.woken[:0]
	rq.timed.a = rq.timed.a[:0]
	for si, s := range g.SMs {
		for ci, sch := range s.Scheds {
			key := int32(si)*rq.perSM + int32(ci)
			rq.spanBase[key] = 0
			rq.spanActive[key] = sch.ActiveWarps() > 0
			switch h := sch.WakeHint(); {
			case h <= 0:
				rq.mode[key] = schedHot
				rq.hot = append(rq.hot, key) // SM-major order: already sorted
			case h == sm.NoDep:
				rq.mode[key] = schedDormant
			default:
				rq.mode[key] = schedTimed
				rq.wakeAt[key] = h
				rq.timed.push(schedEntry{cycle: h, key: key})
			}
		}
	}
}

// startResume reclassifies every scheduler after a mid-kernel restore,
// rebuilding the ready queue from the wake hints the snapshot carried.
// The classification is the dense-equivalent one at cycle g.now: a
// hint at or before now means the dense scan would attempt the
// scheduler this cycle (hot — this also covers timed wakes that came
// due exactly at the interrupt point, which admit would have promoted
// at the top of the interrupted visit), NoDep means only a fill can
// help (dormant), anything else is a timed wake. Spans restart at the
// restored visit count: the interrupt path settled every open span
// through that visit, so the arithmetic continues exactly where the
// uninterrupted run's would.
func (rq *readyQueue) startResume(g *GPU, visits int64) {
	rq.active = true
	rq.visits = visits
	rq.scanKey = -1
	rq.hot = rq.hot[:0]
	rq.woken = rq.woken[:0]
	rq.timed.a = rq.timed.a[:0]
	for si, s := range g.SMs {
		for ci, sch := range s.Scheds {
			key := int32(si)*rq.perSM + int32(ci)
			rq.spanBase[key] = visits
			rq.spanActive[key] = sch.ActiveWarps() > 0
			switch h := sch.WakeHint(); {
			case h <= g.now:
				rq.mode[key] = schedHot
				rq.hot = append(rq.hot, key) // SM-major order: already sorted
			case h == sm.NoDep:
				rq.mode[key] = schedDormant
			default:
				rq.mode[key] = schedTimed
				rq.wakeAt[key] = h
				rq.timed.push(schedEntry{cycle: h, key: key})
			}
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
	rq.startReady(g)
	rq.buildRuns(k.Body, opts)
	defer rq.deactivate()
	return g.readyLoop(k, p, opts, policyNext)
}

// readyLoop is the engine's cycle loop, shared by fresh runs (after
// startReady) and restored ones (after startResume). An interrupt is
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

		anyIssued := false
		dropped := false
		for i := 0; i < len(rq.hot); i++ {
			key := rq.hot[i]
			if rq.burstEnd[key] > g.now {
				anyIssued = true // the burst's issue of this cycle
				continue
			}
			if rq.mode[key] != schedHot {
				continue
			}
			s, sch := rq.smOf[key], rq.schedOf[key]
			rq.scanKey = key
			if g.issueOne(s, sch) {
				anyIssued = true
			} else if h := sch.WakeHint(); h > g.now {
				// The scheduler leaves the hot list: open its blocked
				// span after this visit (issueOne accounted this one).
				rq.spanBase[key] = rq.visits
				rq.spanActive[key] = sch.ActiveWarps() > 0
				if h == sm.NoDep {
					rq.mode[key] = schedDormant
				} else {
					rq.mode[key] = schedTimed
					rq.wakeAt[key] = h
					rq.timed.push(schedEntry{cycle: h, key: key})
				}
				dropped = true
			}
		}
		rq.scanKey = -1
		if dropped {
			live := rq.hot[:0]
			for _, key := range rq.hot {
				if rq.mode[key] == schedHot {
					live = append(live, key)
				}
			}
			rq.hot = live
		}

		if g.now >= opts.MaxCycles {
			g.flushAllSpans(rq.visits)
			// After the scan: every burst keeps its issue of this cycle.
			g.settleBursts(g.now + 1)
			return KernelResult{}, fmt.Errorf("sim: kernel %s exceeded %d cycles", k.Name, opts.MaxCycles)
		}
		if opts.MaxInstructions > 0 && g.totalInstructions() >= opts.MaxInstructions {
			break
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
	if p != nil {
		p.KernelEnd(g, g.now)
	}
	return g.collect(k), nil
}

func (rq *readyQueue) deactivate() {
	rq.active = false
	rq.aluRun = rq.aluRun[:0]
}
