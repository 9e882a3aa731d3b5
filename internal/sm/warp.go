// Package sm models a streaming multiprocessor: warp contexts with
// load/use scoreboarding, the greedy-then-oldest (GTO) warp schedulers,
// and the vital/pollute bit mechanism of the modified scheduler in
// paper §VI-C. Instruction execution and memory timing live in package
// sim; this package owns warp state and arbitration.
package sm

import "math"

// NoDep marks a warp with no outstanding load dependency.
const NoDep = int64(math.MaxInt64)

// Pending tracks one outstanding load of a warp. An entry lives in
// Warp.Pend until its token is resolved (misses, parked replays) or its
// return cycle has provably passed (L1 hits).
type Pending struct {
	Token    int64 // per-warp monotonic id, referenced by MSHR waiters
	DepFlat  int64 // flattened instruction index of the dependent use
	RetCycle int64 // known return cycle for L1 hits; 0 while a miss is outstanding
}

// clearCycle is the cycle at which the load stops blocking its
// dependent use: the return cycle of a hit, NoDep for a miss (only a
// fill can resolve it).
func (p *Pending) clearCycle() int64 {
	if p.RetCycle == 0 {
		return NoDep
	}
	return p.RetCycle
}

// Warp is one warp context in a scheduler slot.
type Warp struct {
	Active bool // slot occupied by a live warp

	Global    int32 // global warp id (unique in the launch)
	Block     int32
	WarpInBlk int32

	Iter       int32 // current loop iteration
	TotalIters int32
	BodyIdx    int32 // next instruction within the body
	FlatIdx    int64 // Iter*len(body)+BodyIdx, used for dependences

	ReadyAt int64 // earliest cycle the warp may issue (pipeline/replay)
	Age     int64 // dispatch order; smaller = older (GTO priority)

	Vital   bool // may be scheduled (one of the N oldest)
	Pollute bool // loads may allocate in L1 (one of the p oldest)

	Pend     []Pending
	tokenSeq int64

	// The scoreboard's answer for the instruction at FlatIdx, cached so
	// CanIssue does not walk Pend. Both are derived from Pend, FlatIdx
	// and ReadyAt and change only in AddPending, ResolveToken and
	// Advance; snapshots do not carry them (decodeState rebuilds).
	//
	// clearAt is the latest clearCycle among the loads the instruction
	// depends on (DepFlat <= FlatIdx): 0 when there is none, NoDep when
	// one is an outstanding miss. It may keep a stale value from an
	// instruction already issued; that value is below ReadyAt, so
	// max(ReadyAt, clearAt) — all anyone reads — is exact.
	clearAt int64
	// nextDep is a lower bound on the DepFlat of every load the
	// instruction does not depend on yet (NoDep when there is none):
	// Advance rebuilds when FlatIdx reaches it.
	nextDep int64
}

// NewToken mints a load token for this warp.
func (w *Warp) NewToken() int64 {
	w.tokenSeq++
	return w.tokenSeq
}

// AddPending registers an outstanding load.
func (w *Warp) AddPending(p Pending) {
	if len(w.Pend) == cap(w.Pend) {
		// Drop returned hits before append would grow the slice, so its
		// capacity tracks the loads in flight, not the loads issued.
		w.rebuild()
	}
	w.Pend = append(w.Pend, p)
	w.note(&p)
}

// note folds one live load into the cached scoreboard answer.
func (w *Warp) note(p *Pending) {
	if p.DepFlat > w.FlatIdx {
		if p.DepFlat < w.nextDep {
			w.nextDep = p.DepFlat
		}
	} else if c := p.clearCycle(); c > w.clearAt {
		w.clearAt = c
	}
}

// rebuild recomputes the cached scoreboard answer from Pend, dropping
// hits that can no longer block: the warp cannot issue before ReadyAt,
// so a hit returning at or before it is never waited for.
func (w *Warp) rebuild() {
	w.clearAt, w.nextDep = 0, NoDep
	live := w.Pend[:0]
	for i := range w.Pend {
		p := w.Pend[i]
		if p.RetCycle != 0 && p.RetCycle <= w.ReadyAt {
			continue
		}
		live = append(live, p)
		w.note(&p)
	}
	w.Pend = live
}

// ResolveToken completes the pending load with the given token (its
// fill arrived, or its parked replay was admitted) and removes it from
// the scoreboard. It reports whether the token was found.
func (w *Warp) ResolveToken(token int64) bool {
	for i := range w.Pend {
		if w.Pend[i].Token != token {
			continue
		}
		blocking := w.Pend[i].DepFlat <= w.FlatIdx
		w.Pend = append(w.Pend[:i], w.Pend[i+1:]...)
		if blocking {
			w.rebuild()
		}
		return true
	}
	return false
}

// issueAt returns the first cycle the warp could issue if no fill
// arrived: NoDep while its instruction waits on an outstanding miss.
func (w *Warp) issueAt() int64 {
	if w.clearAt > w.ReadyAt {
		return w.clearAt
	}
	return w.ReadyAt
}

// CanIssue reports whether the warp may issue at cycle now. Vitality is
// checked by the scheduler, not here.
func (w *Warp) CanIssue(now int64) bool {
	return w.Active && now >= w.ReadyAt && now >= w.clearAt
}

// NextWake returns the earliest future cycle at which this warp could
// become issueable again, or NoDep if that depends on an MSHR fill
// event (unknown here).
func (w *Warp) NextWake(now int64) int64 {
	if !w.Active {
		return NoDep
	}
	return max(w.issueAt(), now+1)
}

// Advance moves the warp to the next instruction; bodyLen is the kernel
// body length. It reports whether the warp just finished its last
// instruction.
func (w *Warp) Advance(bodyLen int) bool {
	w.BodyIdx++
	w.FlatIdx++
	if w.FlatIdx >= w.nextDep {
		w.rebuild()
	}
	if int(w.BodyIdx) >= bodyLen {
		w.BodyIdx = 0
		w.Iter++
		if w.Iter >= w.TotalIters {
			return true
		}
	}
	return false
}

// RunRoom returns how many instructions the warp can advance before
// Advance would rebuild the scoreboard. Inside that room every live
// load's DepFlat lies beyond the whole run, so nothing reads FlatIdx to
// a different answer while AdvanceRun holds it ahead of the cycle:
// ResolveToken's "blocking" test is false under both views, and no
// Advance of the run would have rebuilt.
func (w *Warp) RunRoom() int64 { return w.nextDep - w.FlatIdx - 1 }

// AdvanceRun is k calls of Advance in one step. The caller keeps k
// within RunRoom and short of the body's last instruction, so the run
// neither rebuilds, wraps nor retires.
func (w *Warp) AdvanceRun(k int64) {
	w.BodyIdx += int32(k)
	w.FlatIdx += k
}

// RetreatRun takes back the last r instructions of an AdvanceRun.
func (w *Warp) RetreatRun(r int64) { w.AdvanceRun(-r) }

// Reset clears the slot for reuse; it keeps its scoreboard storage.
func (w *Warp) Reset() {
	*w = Warp{Pend: w.Pend[:0]}
}
