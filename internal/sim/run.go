package sim

import (
	"errors"
	"fmt"

	"poise/internal/cache"
	"poise/internal/sm"
	"poise/internal/trace"
)

// Engine selects the cycle-loop implementation of Run.
type Engine uint8

const (
	// EngineReady is the default: the ready-queue engine (ready.go),
	// whose per-cycle cost is proportional to the schedulers that can
	// actually issue.
	EngineReady Engine = iota
	// EngineDense is the reference dense scan (dense.go) that visits
	// every scheduler every cycle. It is kept for equivalence tests and
	// benchmarks; results are bit-identical to EngineReady.
	EngineDense
)

// RunOptions bound a simulation.
type RunOptions struct {
	// MaxCycles aborts a kernel that exceeds this many cycles (safety
	// net; 0 means the default of 500M).
	MaxCycles int64
	// Warm keeps L2 contents from the previous kernel of a workload.
	Warm bool
	// Engine picks the cycle-loop implementation (default EngineReady).
	Engine Engine
	// Interrupt, when non-nil, lets the run be stopped at a safe point
	// for checkpointing: Run returns ErrInterrupted with the GPU state
	// intact (see InterruptCtl). Only supported by EngineReady.
	Interrupt *InterruptCtl
}

// KernelResult aggregates the measurements of one kernel run.
type KernelResult struct {
	Kernel string

	Cycles       int64
	Instructions int64
	IPC          float64

	L1 cache.Stats
	// AML is the mean L1-miss memory latency in core cycles.
	AML float64

	L2Accesses int64
	L2Hits     int64
	DRAMAcc    int64

	NoCReqFlits  int64
	NoCRespFlits int64

	Replays int64
	Loads   int64
	Stores  int64

	// PerSM carries final per-SM counters for policy analysis.
	PerSM []sm.Counters

	TupleLog []TupleEvent
}

// L2HitRate returns the kernel's L2 hit rate.
func (r KernelResult) L2HitRate() float64 {
	if r.L2Accesses == 0 {
		return 0
	}
	return float64(r.L2Hits) / float64(r.L2Accesses)
}

// Run executes one kernel to completion under the policy and returns
// its measurements. The GPU's SM and memory state is reset first
// (except L2 contents when opts.Warm).
func (g *GPU) Run(k *trace.Kernel, p Policy, opts RunOptions) (KernelResult, error) {
	if err := k.Validate(); err != nil {
		return KernelResult{}, err
	}
	if opts.Interrupt != nil && opts.Engine == EngineDense {
		return KernelResult{}, errors.New("sim: the dense engine does not support interrupts")
	}
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = 500_000_000
	}
	g.kernel = k
	g.bodyLen = len(k.Body)
	g.nextBlk = 0
	g.doneWarp = 0
	g.total = k.TotalWarps()
	g.now = 0
	g.events.reset()
	g.wakes.reset()
	g.TupleLog = g.TupleLog[:0]

	g.resetMemSide(opts.Warm)
	// A block's warps must fit one SM's schedulers under the kernel's
	// occupancy cap, or nothing can ever launch.
	if capWarps := g.MaxN() * g.Cfg.SchedulersPerSM; k.WarpsPerBlock > capWarps {
		return KernelResult{}, fmt.Errorf(
			"sim: kernel %s has %d warps per block but the SM fits only %d under its occupancy cap",
			k.Name, k.WarpsPerBlock, capWarps)
	}
	for _, s := range g.SMs {
		s.PrepareKernel(g.bodyLen)
		s.C = sm.Counters{}
		s.L1.Stats = cache.Stats{}
	}
	g.launchBlocks()
	if g.total == 0 {
		return KernelResult{}, errors.New("sim: kernel launched zero warps")
	}

	policyNext := Never
	if p != nil {
		policyNext = p.KernelStart(g, k)
		if policyNext <= 0 {
			policyNext = Never
		}
	}

	if opts.Engine == EngineDense {
		return g.runDense(k, p, opts, policyNext)
	}
	return g.runReady(k, p, opts, policyNext)
}

// wakeAllReplayers resolves every parked replay token (used when the
// last fill has landed while warps still sit in replay queues, which
// can happen when the warp it admitted was not vital). It reports
// whether any warp was woken. Unlike completeFill it wakes every
// scheduler of an SM it touched: this is the rare drain path.
func (g *GPU) wakeAllReplayers() bool {
	anyWoke := false
	for _, s := range g.SMs {
		woke := false
		for _, r := range s.ReplayQ {
			sch := s.Scheds[r.Sched]
			w := &sch.Slots[r.Slot]
			if w.Active && w.Global == r.Warp {
				w.ResolveToken(r.Token)
				woke = true
			}
		}
		s.ReplayQ = s.ReplayQ[:0]
		if woke {
			g.wakeSMScheds(s)
			anyWoke = true
		}
	}
	return anyWoke
}

// deliverDue starts the visit of cycle g.now: its clock marker is
// consumed and every fill due by now completes.
func (g *GPU) deliverDue() {
	g.wakes.visit(g.now)
	for g.events.next() <= g.now {
		g.completeFill(g.events.pop())
	}
}

// nextEventCycle returns the earliest cycle after g.now that a fill or
// a clock marker asks the loop to visit, or Never.
func (g *GPU) nextEventCycle() int64 {
	return min(g.events.next(), g.wakes.next(g.now))
}

// collect gathers the result after a kernel drains.
func (g *GPU) collect(k *trace.Kernel) KernelResult {
	res := KernelResult{
		Kernel: k.Name,
		Cycles: g.now,
	}
	var aml, amlN int64
	for _, s := range g.SMs {
		res.Instructions += s.C.Instructions
		res.Loads += s.C.Loads
		res.Stores += s.C.Stores
		res.Replays += s.C.Replays
		aml += s.C.AMLSum
		amlN += s.C.AMLCount
		res.L1 = res.L1.Add(s.L1.Stats)
		res.PerSM = append(res.PerSM, s.C)
	}
	if amlN > 0 {
		res.AML = float64(aml) / float64(amlN)
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	res.L2Accesses = g.L2Accesses
	res.L2Hits = g.L2Hits
	res.DRAMAcc = g.DRAM.Accesses
	res.NoCReqFlits = g.NoC.ReqFlits
	res.NoCRespFlits = g.NoC.RespFlits
	res.TupleLog = append([]TupleEvent(nil), g.TupleLog...)
	return res
}

// issueOne attempts one instruction issue on a scheduler; it returns
// whether an instruction was issued.
func (g *GPU) issueOne(s *sm.SM, sch *sm.Scheduler) bool {
	if g.now < sch.WakeHint() {
		if sch.ActiveWarps() > 0 {
			sch.StallCycles++
		} else {
			sch.IdleCycles++
		}
		return false
	}
	slot, wake := sch.PickOrWake(g.now)
	if slot < 0 {
		if sch.ActiveWarps() > 0 {
			sch.StallCycles++
		} else {
			sch.IdleCycles++
		}
		sch.SetWakeHint(wake)
		return false
	}
	w := &sch.Slots[slot]
	ins := &g.kernel.Body[w.BodyIdx]
	pc := w.BodyIdx

	switch ins.Kind {
	case trace.OpALU:
		// An issue burst: the whole run of independent ALU instructions
		// is applied now and the scheduler leaves the scan until it is
		// over (ready.go). aluRun is empty for the dense engine.
		if g.burst(s, sch, w, g.now) {
			return true
		}
		s.C.Instructions++
		if ins.DepALU {
			w.ReadyAt = g.now + int64(g.Cfg.ALULatency)
			if g.Cfg.ALULatency > 1 {
				g.wakes.mark(w.ReadyAt)
			}
		} else {
			w.ReadyAt = g.now + 1
		}
	case trace.OpLoad:
		if !g.issueLoad(s, sch, slot, w, ins, pc) {
			// MSHR full: replay later without advancing.
			sch.StallCycles++
			return false
		}
		s.C.Instructions++
		s.C.Loads++
		w.ReadyAt = g.now + 1
	case trace.OpStore:
		g.issueStore(s, w, ins)
		s.C.Instructions++
		s.C.Stores++
		w.ReadyAt = g.now + 1
	}

	sch.IssueCycles++
	if w.Advance(g.bodyLen) {
		g.retireWarp(s, sch, slot)
	} else if ins.Kind == trace.OpLoad && w.CanIssue(g.now+1) {
		// The run behind a load starts with it: GTO stays with the warp
		// next cycle, so the attempt that would begin the burst then is
		// never made. CanIssue is what that attempt would ask — a use at
		// distance 0 made Advance rebuild and clearAt is exact, otherwise
		// it is stale below ReadyAt.
		g.burst(s, sch, w, g.now+1)
	}
	return true
}

// burst applies the run of independent ALU instructions the warp stands
// at, as if it issued one of them every cycle from cycle from on, and
// reports whether there was one worth a burst. The scan sees burstEnd
// move and files the scheduler on the calendar.
func (g *GPU) burst(s *sm.SM, sch *sm.Scheduler, w *sm.Warp, from int64) bool {
	if int(w.BodyIdx) >= len(g.rq.aluRun) {
		return false
	}
	k := min(int64(g.rq.aluRun[w.BodyIdx]), w.RunRoom())
	if k < minBurst {
		return false
	}
	s.C.Instructions += k
	sch.IssueCycles += k
	w.AdvanceRun(k)
	w.ReadyAt = from + k
	g.rq.burstEnd[g.rq.scanKey] = w.ReadyAt
	return true
}

// ctxFor builds the trace context for a warp on scheduler sch of SM s.
func ctxFor(s *sm.SM, schedID int, w *sm.Warp, slot int) trace.Ctx {
	return trace.Ctx{
		GlobalWarp: int(w.Global),
		SM:         s.ID,
		Sched:      schedID,
		Slot:       slot,
		Block:      int(w.Block),
		WarpInBlk:  int(w.WarpInBlk),
	}
}

// issueLoad handles an OpLoad. It returns false when the load could not
// be issued (MSHR backpressure) — the warp must retry.
func (g *GPU) issueLoad(s *sm.SM, sch *sm.Scheduler, slot int, w *sm.Warp, ins *trace.Instr, pc int32) bool {
	ctx := ctxFor(s, sch.ID, w, slot)
	addr := g.kernel.Patterns[ins.Slot].Addr(ctx, int(w.Iter))
	lineAddr := s.L1.LineAddr(addr)
	depFlat := w.FlatIdx + int64(ins.UseDist) + 1
	pollute := w.Pollute && !s.ShouldBypass(pc)

	// A load that must be replayed (miss with a full MSHR file and
	// nothing to merge into) must not distort the statistics: hardware
	// replays the whole access, so only the final attempt counts. The
	// file is tested first, so only a full one costs the extra L1 probe.
	// The warp parks in the SM's replay queue and the next MSHR release
	// wakes it.
	var m *cache.MSHR
	if s.MSHR.Full() && !s.L1.Contains(addr) {
		if m = s.MSHR.Lookup(lineAddr); m == nil {
			s.C.Replays++
			token := w.NewToken()
			w.AddPending(sm.Pending{Token: token, DepFlat: w.FlatIdx})
			s.ReplayQ = append(s.ReplayQ, cache.Waiter{Sched: sch.ID, Slot: slot, Token: token, Warp: w.Global})
			return false
		}
	}

	res := s.L1.Lookup(addr, w.Global, pc, w.Pollute)
	s.RecordLoadPC(pc, res.Hit)
	if res.Hit {
		ret := g.now + int64(g.Cfg.L1HitLatency)
		w.AddPending(sm.Pending{Token: w.NewToken(), DepFlat: depFlat, RetCycle: ret})
		s.C.HitReturns++
		g.wakes.mark(ret)
		return true
	}

	// Miss. Merge into an outstanding MSHR when possible (a full file
	// was searched above, and a miss in it parked the warp).
	token := w.NewToken()
	waiter := cache.Waiter{Sched: sch.ID, Slot: slot, Token: token, Warp: w.Global}
	w.AddPending(sm.Pending{Token: token, DepFlat: depFlat})
	if m == nil {
		m = s.MSHR.Lookup(lineAddr)
	}
	if m != nil {
		s.MSHR.Merge(m, pollute, waiter)
		return true
	}
	s.MSHR.Allocate(lineAddr, g.now, pollute, w.Global, pc, waiter)
	ret := g.memAccess(s.ID, lineAddr, w.Global, pc, false)
	g.events.push(event{cycle: ret, sm: int32(s.ID), line: lineAddr})
	return true
}

// memAccess times one request through crossbar, L2 and (on L2 miss)
// DRAM, returning the cycle the response is fully delivered to the SM.
// Write requests occupy bandwidth but return immediately meaningful
// times only for accounting.
func (g *GPU) memAccess(smID int, lineAddr uint64, warp int32, pc int32, write bool) int64 {
	arrive := g.NoC.Request(smID, g.now)
	bank := g.bankFor(lineAddr)
	start := arrive
	if bank.nextFree > start {
		start = bank.nextFree
	}
	bank.nextFree = start + g.l2Service
	lookupDone := bank.nextFree + g.l2Pipe

	g.L2Accesses++
	r := bank.c.Lookup(lineAddr*uint64(g.Cfg.L2.LineBytes), warp, pc, true)
	dataReady := lookupDone
	if r.Hit {
		g.L2Hits++
	} else {
		dataReady = g.DRAM.Access(lineAddr, lookupDone)
		bank.c.Fill(lineAddr*uint64(g.Cfg.L2.LineBytes), warp, pc, true)
	}
	if write {
		return dataReady
	}
	return g.NoC.Response(smID, dataReady, g.respFlits)
}

// issueStore handles an OpStore: write-through, no-allocate,
// fire-and-forget; it consumes request-path and DRAM bandwidth.
func (g *GPU) issueStore(s *sm.SM, w *sm.Warp, ins *trace.Instr) {
	// Address generation mirrors loads; stores use the same pattern slot.
	ctx := trace.Ctx{GlobalWarp: int(w.Global), SM: s.ID, Block: int(w.Block), WarpInBlk: int(w.WarpInBlk)}
	addr := g.kernel.Patterns[ins.Slot].Addr(ctx, int(w.Iter))
	lineAddr := s.L1.LineAddr(addr)
	// Data flits occupy the request port.
	for i := 0; i < g.respFlits-1; i++ {
		g.NoC.Request(s.ID, g.now)
	}
	g.memAccess(s.ID, lineAddr, w.Global, w.BodyIdx, true)
}

// completeFill finishes an L1 miss: release the MSHR, install the line
// if any merged requester had pollute privilege, wake waiters, and
// account the miss latency into AML. Only the schedulers owning a warp
// whose token it resolved are woken (see the ready.go header); the
// dense reference engine still wakes the whole SM.
func (g *GPU) completeFill(e event) {
	s := g.SMs[e.sm]
	m := s.MSHR.Release(e.line)
	if m == nil {
		return // kernel boundary reset raced with an in-flight fill
	}
	s.L1.Fill(e.line*uint64(g.Cfg.L1.LineBytes), m.Warp, m.PC, m.Pollute)
	s.C.AMLSum += g.now - m.IssueCycle
	s.C.AMLCount++
	for _, wt := range m.Waiters {
		sch := s.Scheds[wt.Sched]
		w := &sch.Slots[wt.Slot]
		// The slot may have been recycled for a new warp since the miss
		// was issued; only the original warp's scoreboard is touched.
		if w.Active && w.Global == wt.Warp {
			w.ResolveToken(wt.Token)
			g.wakeSched(s, wt.Sched)
		}
	}
	// The released MSHR entry admits one parked replayer (FIFO). The
	// consumed prefix (stale entries plus the admitted one) is removed
	// by copying the tail down so the queue reuses its backing storage;
	// reslicing the head off (q = q[1:]) would strand one slot per
	// admission and reallocate under sustained MSHR pressure.
	q := s.ReplayQ
	consumed := 0
	for consumed < len(q) {
		r := q[consumed]
		consumed++
		sch := s.Scheds[r.Sched]
		w := &sch.Slots[r.Slot]
		if w.Active && w.Global == r.Warp {
			w.ResolveToken(r.Token)
			g.wakeSched(s, r.Sched)
			break
		}
		// Stale entry (warp gone): admit the next one.
	}
	if consumed > 0 {
		s.ReplayQ = q[:copy(q, q[consumed:])]
	}
	// The entry is fully processed: hand it back for reuse so a steady
	// miss stream allocates no MSHR state per fill.
	s.MSHR.Recycle(m)
	if !g.rq.active {
		g.wakeSMScheds(s)
	}
}

// retireWarp finishes a warp and refills block residency. The retiring
// scheduler needs no ready-queue bookkeeping: it is the hot scheduler
// currently issuing, so it carries no open blocked span, and Retire's
// refreshBits cleared its wake hint so it stays hot.
func (g *GPU) retireWarp(s *sm.SM, sch *sm.Scheduler, slot int) {
	sch.Retire(slot)
	g.doneWarp++
	if g.nextBlk < g.kernel.Blocks {
		g.launchBlocks()
	}
}
