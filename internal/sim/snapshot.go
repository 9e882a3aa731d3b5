package sim

import (
	"errors"
	"fmt"

	"poise/internal/snap"
	"poise/internal/trace"
)

// Mid-run snapshot/restore. The GPU serialises every piece of live
// engine state — SMs (schedulers, warps, scoreboards, L1 + victim
// tags, MSHRs, replay queues, PC tables), the L2 banks, NoC and DRAM
// servers, the fill rings and wake ring, the visit counter and the
// parked policy activation — into a snap payload. Restore-then-finish is proven
// bit-identical to uninterrupted runs (results, per-scheduler
// counters and tuple logs) by TestSnapshotRestoreIdentity across the
// catalogue workloads and every scheme class.
//
// The ready queue itself is deliberately not serialised: an interrupt
// settles all blocked-cycle spans and issue bursts first, after which
// the queue's classification is a pure function of the wake hints the
// schedulers carry — readyQueue.start rebuilds it. The warps' cached scoreboard answers
// are derived state too (sm.Warp.decodeState rebuilds them from the
// decoded loads). Keeping derived state out of the payload keeps the
// format small and removes a whole class of restore-inconsistency bugs.

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
	// EncodePolicyState serialises the mutable state.
	EncodePolicyState(w *snap.Writer)
	// DecodePolicyState restores state written by EncodePolicyState.
	DecodePolicyState(r *snap.Reader) error
}

// encodeState serialises the GPU. With running=true the in-flight
// kernel's loop state (fills and markers, launch cursors, visit counter,
// parked policy activation, tuple log) is included; kernel-boundary
// snapshots omit it because Run re-initialises all of it per kernel.
func (g *GPU) encodeState(w *snap.Writer, running bool) {
	w.Uvarint(simStateVersion)
	w.Varint(g.now)
	w.Varint(g.L2Accesses)
	w.Varint(g.L2Hits)
	w.Uvarint(uint64(len(g.banks)))
	for i := range g.banks {
		w.Varint(g.banks[i].nextFree)
		g.banks[i].c.EncodeState(w)
	}
	g.NoC.EncodeState(w)
	g.DRAM.EncodeState(w)
	w.Uvarint(uint64(len(g.SMs)))
	for _, s := range g.SMs {
		s.EncodeState(w)
	}
	w.Bool(running)
	if !running {
		return
	}
	w.String(g.kernel.Name)
	w.Varint(int64(g.bodyLen))
	w.Varint(int64(g.nextBlk))
	w.Varint(int64(g.doneWarp))
	w.Varint(int64(g.total))
	// One event list on the wire: the fills SM-major, oldest first,
	// then the ring's clock markers.
	q := &g.events
	w.Uvarint(uint64(q.len() + g.wakes.marked))
	for sm, n := range q.count {
		for i := int32(0); i < n; i++ {
			f := q.at(int32(sm), i)
			w.Varint(f.cycle)
			w.Uvarint(uint64(evFill))
			w.Varint(int64(sm))
			w.Uvarint(f.line)
		}
	}
	for c := g.now; c <= g.now+g.wakes.horizon; c++ {
		if g.wakes.has(c) {
			w.Varint(c)
			w.Uvarint(uint64(evWake))
			w.Varint(0)
			w.Uvarint(0)
		}
	}
	w.Varint(g.rq.visits)
	w.Varint(g.policyNext)
	w.Bool(g.TraceTuples)
	w.Uvarint(uint64(len(g.TupleLog)))
	for _, ev := range g.TupleLog {
		w.Varint(ev.Cycle)
		w.Varint(int64(ev.SM))
		w.Varint(int64(ev.N))
		w.Varint(int64(ev.P))
		w.Bool(ev.Predicted)
	}
}

// decodeState restores state written by encodeState onto a GPU built
// from the same configuration. It reports whether the snapshot was of
// a running kernel.
func (g *GPU) decodeState(r *snap.Reader) (running bool, err error) {
	if v := r.Uvarint(); r.Err() == nil && v != simStateVersion {
		return false, fmt.Errorf("sim: unsupported state version %d (have %d)", v, simStateVersion)
	}
	g.now = r.Varint()
	g.L2Accesses = r.Varint()
	g.L2Hits = r.Varint()
	if n := r.Uvarint(); r.Err() == nil && n != uint64(len(g.banks)) {
		return false, fmt.Errorf("sim: snapshot has %d L2 banks, GPU has %d", n, len(g.banks))
	}
	for i := range g.banks {
		g.banks[i].nextFree = r.Varint()
		if err := g.banks[i].c.DecodeState(r); err != nil {
			return false, err
		}
	}
	if err := g.NoC.DecodeState(r); err != nil {
		return false, err
	}
	if err := g.DRAM.DecodeState(r); err != nil {
		return false, err
	}
	if n := r.Uvarint(); r.Err() == nil && n != uint64(len(g.SMs)) {
		return false, fmt.Errorf("sim: snapshot has %d SMs, GPU has %d", n, len(g.SMs))
	}
	for _, s := range g.SMs {
		if err := s.DecodeState(r); err != nil {
			return false, err
		}
	}
	running = r.Bool()
	if r.Err() != nil || !running {
		return running, r.Err()
	}
	name := r.LimitedString(maxNameSnap)
	g.bodyLen = int(r.Varint())
	g.nextBlk = int(r.Varint())
	g.doneWarp = int(r.Varint())
	g.total = int(r.Varint())
	ne := r.Count(maxEventsSnap)
	g.events.reset()
	g.wakes.reset()
	for i := 0; i < ne; i++ {
		cycle, kind := r.Varint(), eventKind(r.Uvarint())
		e := event{cycle: cycle, sm: int32(r.Varint()), line: r.Uvarint()}
		if r.Err() != nil {
			break
		}
		switch kind {
		case evWake:
			// Containers written before the ring existed carry their
			// clock markers as heap events, in any order.
			if cycle < g.now || cycle > g.now+g.wakes.horizon {
				return true, fmt.Errorf("sim: clock marker at cycle %d outside [%d, %d]",
					cycle, g.now, g.now+g.wakes.horizon)
			}
			g.wakes.mark(cycle)
		case evFill:
			// Containers written while fills sat in one heap list them
			// in heap-array order; insert sorts each SM's as they come.
			if e.sm < 0 || int(e.sm) >= len(g.SMs) {
				return true, fmt.Errorf("sim: fill for SM %d of %d", e.sm, len(g.SMs))
			}
			// Every fill in flight holds an MSHR entry; that is what
			// keeps an SM's ring from overflowing, now and on later pushes.
			if used := g.SMs[e.sm].MSHR.Used(); int(g.events.count[e.sm]) >= used {
				return true, fmt.Errorf("sim: SM %d has more fills in flight than its %d live MSHR entries", e.sm, used)
			}
			g.events.insert(e)
		default:
			return true, fmt.Errorf("sim: unknown event kind %d", kind)
		}
	}
	g.rq.visits = r.Varint()
	g.policyNext = r.Varint()
	g.TraceTuples = r.Bool()
	nt := r.Count(maxTupleLogSnap)
	g.TupleLog = g.TupleLog[:0]
	for i := 0; i < nt; i++ {
		g.TupleLog = append(g.TupleLog, TupleEvent{
			Cycle:     r.Varint(),
			SM:        int(r.Varint()),
			N:         int(r.Varint()),
			P:         int(r.Varint()),
			Predicted: r.Bool(),
		})
	}
	if r.Err() != nil {
		return true, r.Err()
	}
	// The kernel pointer cannot be serialised (it holds pattern
	// closures); the caller must hand the same kernel to ResumeKernel.
	// Stash its name for the identity check there.
	g.kernel = &trace.Kernel{Name: name}
	return true, nil
}

// encodePolicy appends the policy identity and, for stateful policies,
// their mutable state.
func encodePolicy(w *snap.Writer, p Policy) {
	name := ""
	if p != nil {
		name = p.Name()
	}
	w.String(name)
	if sp, ok := p.(StatefulPolicy); ok {
		w.Bool(true)
		sp.EncodePolicyState(w)
	} else {
		w.Bool(false)
	}
}

// decodePolicy checks the snapshot was taken under an identically
// named policy and restores its state.
func decodePolicy(r *snap.Reader, p Policy) error {
	name := r.LimitedString(maxNameSnap)
	want := ""
	if p != nil {
		want = p.Name()
	}
	if r.Err() == nil && name != want {
		return fmt.Errorf("sim: snapshot was taken under policy %q, resuming with %q", name, want)
	}
	if r.Bool() {
		sp, ok := p.(StatefulPolicy)
		if !ok {
			return fmt.Errorf("sim: snapshot carries state for policy %q but it is not restorable", want)
		}
		return sp.DecodePolicyState(r)
	}
	return r.Err()
}

// SnapshotKernel captures the GPU mid-kernel, immediately after Run
// returned ErrInterrupted, together with the policy's state. The
// returned payload restores with ResumeKernel on any GPU built from
// the same configuration.
func (g *GPU) SnapshotKernel(p Policy) ([]byte, error) {
	if g.kernel == nil {
		return nil, errors.New("sim: no interrupted kernel to snapshot")
	}
	// A kernel state changes little in size from one interrupt to the
	// next, so the last one seen (restored or written) sizes the buffer;
	// the first snapshot of a run grows it by doubling.
	w := snap.NewWriterSize(max(256, g.stateSize+g.stateSize/8))
	g.encodeState(w, true)
	encodePolicy(w, p)
	g.stateSize = len(w.Data())
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
	running, err := g.decodeState(r)
	if err != nil {
		return KernelResult{}, err
	}
	g.stateSize = len(state)
	if !running {
		return KernelResult{}, errors.New("sim: snapshot is not a mid-kernel state")
	}
	if g.kernel.Name != k.Name {
		return KernelResult{}, fmt.Errorf("sim: snapshot is of kernel %q, not %q", g.kernel.Name, k.Name)
	}
	if err := decodePolicy(r, p); err != nil {
		return KernelResult{}, err
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
	g.rq.buildRuns(k.Body, opts)
	defer g.rq.deactivate()
	return g.readyLoop(k, p, opts, g.policyNext)
}
