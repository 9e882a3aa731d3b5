package sim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"poise/internal/snap"
	"poise/internal/trace"
)

// Mid-run snapshot/restore. The GPU serialises every piece of live
// engine state — SMs (schedulers, warps, scoreboards, L1 + victim
// tags, MSHRs, replay queues, PC tables), the L2 banks, NoC and DRAM
// servers, the fill rings and wake ring, the visit counter and the
// parked policy activation — into a snap payload. Restore-then-finish
// is proven bit-identical to uninterrupted runs (results, per-scheduler
// counters and tuple logs) by TestSnapshotRestoreIdentity across the
// catalogue workloads and every scheme class.
//
// The ready queue itself is deliberately not serialised: an interrupt
// settles all blocked-cycle spans and issue bursts first, after which
// the queue's classification is a pure function of the wake hints the
// schedulers carry — readyQueue.start rebuilds it. The warps' cached
// scoreboard answers are derived state too (sm.Scheduler's restore
// rebuilds them from the decoded loads). Keeping derived state out of
// the payload keeps the format small and removes a whole class of
// restore-inconsistency bugs; stateFields (fields_test.go) names every
// such field, and a test fails on one it does not name.

// simStateVersion versions the GPU state payload inside a poisesnap
// container (the container has its own version for the envelope).
const simStateVersion = 1

const (
	maxEventsSnap   = 1 << 24
	maxTupleLogSnap = 1 << 24
	maxNameSnap     = 1 << 12
)

// StatefulPolicy is implemented by policies that carry mutable state
// across Step calls (CCWS, APCM, PCAL-SWL, random-restart, Poise).
// Checkpointing captures that state so a resumed run continues the
// policy's trajectory exactly; stateless policies (GTO, Fixed) need
// nothing. The restoring side constructs the policy with the same
// parameters — only mutable state crosses the wire.
type StatefulPolicy interface {
	Policy
	// WalkState lists the mutable state, in either direction. A walk in
	// restores onto g, whose machine state is restored already, and
	// checks what it read against g as well as itself: a table per SM
	// has one entry per SM of g, a table per PC the length of that SM's.
	WalkState(k snap.Walk, g *GPU)
}

// walk lists the GPU's wire fields. With running the in-flight kernel's
// loop state (fills and markers, launch cursors, visit counter, parked
// policy activation, tuple log) follows the machine state. Every writer
// sets it; the flag stays on the wire so that a payload without it (a
// kernel-boundary state, which no code writes any more) is refused. A
// walk in takes running from the payload, onto a GPU built from the same
// configuration; either way walk returns it.
func (g *GPU) walk(k snap.Walk, running bool) bool {
	v := uint64(simStateVersion)
	if k.Uvarint(&v); v != simStateVersion {
		k.Fail(fmt.Errorf("sim: unsupported state version %d (have %d)", v, simStateVersion))
	}
	k.Varint(&g.now)
	k.Varint(&g.L2Accesses)
	k.Varint(&g.L2Hits)
	k.Fixed(len(g.banks), "sim: snapshot has %d L2 banks, GPU has %d")
	for i := range g.banks {
		k.Varint(&g.banks[i].nextFree)
		g.banks[i].c.Walk(k)
	}
	g.NoC.Walk(k)
	g.DRAM.Walk(k)
	k.Fixed(len(g.SMs), "sim: snapshot has %d SMs, GPU has %d")
	for _, s := range g.SMs {
		s.Walk(k)
	}
	if k.Bool(&running); !running {
		return false
	}
	if k.Reader() != nil {
		// The kernel pointer cannot be serialised (it holds pattern
		// closures); the caller must hand the same kernel to ResumeKernel,
		// which checks it against the name stashed here.
		g.kernel = &trace.Kernel{}
	}
	k.String(&g.kernel.Name, maxNameSnap)
	k.Int(&g.bodyLen)
	k.Int(&g.nextBlk)
	k.Int(&g.doneWarp)
	k.Int(&g.total)
	if k.Reader() != nil {
		g.decodeEvents(k)
	} else {
		g.encodeEvents(k)
	}
	k.Varint(&g.rq.visits)
	k.Varint(&g.policyNext)
	k.Bool(&g.TraceTuples)
	snap.Slice(k, &g.TupleLog, maxTupleLogSnap, func(k snap.Walk, ev *TupleEvent) {
		k.Varint(&ev.Cycle)
		k.Int(&ev.SM)
		k.Int(&ev.N)
		k.Int(&ev.P)
		k.Bool(&ev.Predicted)
	})
	return true
}

// eventMax is the largest event record: cycle, kind, SM and line.
const eventMax = 4 * binary.MaxVarintLen64

// encodeEvents writes one event list: the fills SM-major, oldest first,
// then the ring's clock markers.
func (g *GPU) encodeEvents(k snap.Walk) {
	q := &g.events
	k.Writer().Uvarint(uint64(q.len() + g.wakes.marked))
	put := func(cycle int64, kind eventKind, sm int, line uint64) {
		b := k.Reserve(eventMax)
		at := binary.PutVarint(b, cycle)
		at += binary.PutUvarint(b[at:], uint64(kind))
		at += binary.PutVarint(b[at:], int64(sm))
		k.Advance(at + binary.PutUvarint(b[at:], line))
	}
	for sm, n := range q.count {
		for i := int32(0); i < n; i++ {
			f := q.at(int32(sm), i)
			put(f.cycle, evFill, sm, f.line)
		}
	}
	for c := g.now; c <= g.now+g.wakes.horizon; c++ {
		if g.wakes.has(c) {
			put(c, evWake, 0, 0)
		}
	}
}

// decodeEvents sorts a payload's event list into the fill rings and the
// wake ring.
func (g *GPU) decodeEvents(k snap.Walk) {
	r := k.Reader()
	ne := r.Count(maxEventsSnap)
	g.events.reset()
	g.wakes.reset()
	for i := 0; i < ne; i++ {
		cycle, kind := r.Varint(), eventKind(r.Uvarint())
		e := event{cycle: cycle, sm: int32(r.Varint()), line: r.Uvarint()}
		if r.Err() != nil {
			return
		}
		switch kind {
		case evWake:
			// Containers written before the ring existed carry their
			// clock markers as heap events, in any order.
			if cycle < g.now || cycle > g.now+g.wakes.horizon {
				k.Fail(fmt.Errorf("sim: clock marker at cycle %d outside [%d, %d]",
					cycle, g.now, g.now+g.wakes.horizon))
				return
			}
			g.wakes.mark(cycle)
		case evFill:
			// Containers written while fills sat in one heap list them
			// in heap-array order; insert sorts each SM's as they come.
			if e.sm < 0 || int(e.sm) >= len(g.SMs) {
				k.Fail(fmt.Errorf("sim: fill for SM %d of %d", e.sm, len(g.SMs)))
				return
			}
			// Every fill in flight holds an MSHR entry; that is what
			// keeps an SM's ring from overflowing, now and on later pushes.
			if used := g.SMs[e.sm].MSHR.Used(); int(g.events.count[e.sm]) >= used {
				k.Fail(fmt.Errorf("sim: SM %d has more fills in flight than its %d live MSHR entries", e.sm, used))
				return
			}
			g.events.insert(e)
		default:
			k.Fail(fmt.Errorf("sim: unknown event kind %d", kind))
			return
		}
	}
}

// walkPolicy lists the policy identity and, for stateful policies,
// their mutable state. A walk in checks the snapshot was taken under an
// identically named policy and restores its state onto g.
func (g *GPU) walkPolicy(k snap.Walk, p Policy) {
	want := ""
	if p != nil {
		want = p.Name()
	}
	name := want
	if k.String(&name, maxNameSnap); name != want {
		k.Fail(fmt.Errorf("sim: snapshot was taken under policy %q, resuming with %q", name, want))
	}
	sp, ok := p.(StatefulPolicy)
	stateful := ok
	k.Bool(&stateful)
	switch {
	case stateful && !ok:
		k.Fail(fmt.Errorf("sim: snapshot carries state for policy %q but it is not restorable", want))
	case ok && !stateful:
		k.Fail(fmt.Errorf("sim: snapshot carries no state for policy %q", want))
	case ok:
		sp.WalkState(k, g)
	}
}

// SnapshotKernel captures the GPU mid-kernel, immediately after Run
// returned ErrInterrupted, together with the policy's state. The
// returned payload restores with ResumeKernel on any GPU built from
// the same configuration.
func (g *GPU) SnapshotKernel(p Policy) ([]byte, error) {
	return g.writeKernel(p, 0)
}

// writeKernel is SnapshotKernel's walk out, behind room free bytes at
// the front of the buffer: the state is buf[room:], and a checkpoint
// seals its container into the room (snap.SealBehind).
func (g *GPU) writeKernel(p Policy, room int) ([]byte, error) {
	if g.kernel == nil {
		return nil, errors.New("sim: no interrupted kernel to snapshot")
	}
	// A kernel state changes little in size from one interrupt to the
	// next, so the last one seen (restored or written) sizes the buffer;
	// the first snapshot of a run grows it by doubling.
	w := snap.NewWriterBehind(room, max(256, g.stateSize+g.stateSize/8))
	g.walk(snap.Out(w), true)
	g.walkPolicy(snap.Out(w), p)
	g.stateSize = len(w.Data()) - room
	return w.Data(), nil
}

// ResumeKernel restores a mid-kernel snapshot taken by SnapshotKernel
// and runs the kernel to completion, returning the same KernelResult
// an uninterrupted run would have. The caller supplies the identical
// kernel (its pattern closures cannot be serialised) and a policy
// constructed with the same parameters as the interrupted run's.
// opts.Interrupt may be armed again: the resumed run is itself
// preemptible (pass a fresh control — a fired one re-triggers
// immediately).
func (g *GPU) ResumeKernel(k *trace.Kernel, p Policy, opts RunOptions, state []byte) (KernelResult, error) {
	if err := k.Validate(); err != nil {
		return KernelResult{}, err
	}
	if opts.Engine == EngineDense {
		return KernelResult{}, errors.New("sim: the dense engine does not support resume")
	}
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = 500_000_000
	}
	r := snap.NewReader(state)
	running := g.walk(snap.In(r), false)
	if r.Err() != nil {
		return KernelResult{}, r.Err()
	}
	g.stateSize = len(state)
	if !running {
		return KernelResult{}, errors.New("sim: snapshot is not a mid-kernel state")
	}
	if g.kernel.Name != k.Name {
		return KernelResult{}, fmt.Errorf("sim: snapshot is of kernel %q, not %q", g.kernel.Name, k.Name)
	}
	if g.walkPolicy(snap.In(r), p); r.Err() != nil {
		return KernelResult{}, r.Err()
	}
	if r.Len() != 0 {
		return KernelResult{}, fmt.Errorf("sim: %d trailing bytes in kernel state", r.Len())
	}
	if g.bodyLen != len(k.Body) || g.total != k.TotalWarps() || g.nextBlk > k.Blocks {
		return KernelResult{}, fmt.Errorf("sim: snapshot geometry (%d body, %d warps, %d blocks launched) does not match kernel %s",
			g.bodyLen, g.total, g.nextBlk, k.Name)
	}
	for _, s := range g.SMs {
		if err := s.CheckRestored(g.bodyLen); err != nil {
			return KernelResult{}, err
		}
	}
	g.kernel = k
	visits := g.rq.visits
	g.rq.start(g, visits)
	g.rq.buildRuns(k.Body)
	defer g.rq.deactivate()
	return g.readyLoop(k, p, opts, g.policyNext)
}
