package traceio

import (
	"fmt"
	"math"
	"math/bits"

	"poise/internal/sim"
	"poise/internal/trace"
)

// Replay plays one recorded address-stream slot back through the
// simulator: Addr(c, seq) returns the recorded address of warp
// c.GlobalWarp's seq-th access. It implements trace.Pattern (and
// trace.Reseeder: recorded streams carry no randomness, so reseeding
// is the identity and catalogue seeds pass through replayed workloads
// unchanged).
//
// Storage is flat: every warp's stream lives in one packed arena with
// a per-warp offset index (offs[g]..offs[g+1] bounds warp g's
// addresses). That is one allocation per slot instead of one per warp,
// and the Addr hot path — the innermost call of every simulated memory
// access — walks contiguous memory instead of chasing a pointer per
// warp. ReplayBuilder appends warps in order, so the arena can be
// filled directly from a Scanner without ever holding per-warp slices.
//
// Replay is total: a warp or sequence number beyond the recorded
// range wraps cyclically rather than panicking. With a kernel built by
// Trace.Workload the recorded range is never exceeded — PerWarpIters
// pins each warp to its recorded iteration count — but ingested
// traces (Accel-Sim) may have ragged per-slot stream lengths, which
// cyclic replay extends deterministically.
type Replay struct {
	name  string
	arena []uint64
	// offs[g] is where warp g's stream starts in arena; len(offs) is
	// warps+1, so offs[g+1]-offs[g] is warp g's stream length.
	offs []uint32
	// footprint is the mean per-warp distinct-address count, precomputed
	// at build time so Footprint stays O(1).
	footprint int
}

// ReplayBuilder accumulates one slot's per-warp streams into a flat
// Replay, computing the footprint in the same pass with a single
// scratch set. Call Warp once per global warp, in warp order, then
// Finish.
type ReplayBuilder struct {
	name     string
	arena    []uint64
	offs     []uint32
	scratch  distinctSet
	sum      int // Σ per-warp distinct addresses (empty warps skipped)
	counted  int // warps with a non-empty stream
	overflow bool
	// uncounted leaves the footprint to the caller (ReadWorkload's
	// characterisation counts it with its own).
	uncounted bool
}

// NewReplayBuilder starts a builder for one slot. If total warps and
// total addresses are known ahead of time (the poisetrace header
// declares both), sizing hints avoid regrowth; pass 0 when unknown.
func NewReplayBuilder(name string, warpsHint, addrsHint int) *ReplayBuilder {
	b := &ReplayBuilder{name: name}
	if warpsHint > 0 {
		b.offs = make([]uint32, 1, warpsHint+1)
	} else {
		b.offs = make([]uint32, 1)
	}
	if addrsHint > 0 {
		b.arena = make([]uint64, 0, addrsHint)
	}
	return b
}

// Warp appends the next warp's address stream. The slice is copied;
// callers may reuse it (Scanner records do).
func (b *ReplayBuilder) Warp(stream []uint64) {
	b.arena = append(b.arena, stream...)
	if len(b.arena) > math.MaxUint32 {
		b.overflow = true
	}
	b.offs = append(b.offs, uint32(len(b.arena)))
	if len(stream) == 0 || b.uncounted {
		return
	}
	b.scratch.reset()
	for i, a := range stream {
		if i == 0 || a != stream[i-1] { // a repeat is already counted
			b.scratch.add(a)
		}
	}
	b.sum += b.scratch.n
	b.counted++
}

// distinctSet counts distinct values: an open-addressing table kept
// from one use to the next and emptied by moving on to a new stamp,
// at a fraction of what a map cleared and refilled each time costs.
// Each value carries an int32 tag (the interleaved scan keeps the warp
// that touched a line last there). The table doubles when it is half
// full and never shrinks, so it settles at the size the largest set
// needs, small enough to stay in cache when sets are.
type distinctSet struct {
	slots []distinctSlot
	stamp uint32
	shift uint // 64 - log2(len(slots))
	n     int  // distinct values added since reset
}

type distinctSlot struct {
	key   uint64
	stamp uint32
	tag   int32
}

// reset empties the set.
func (d *distinctSet) reset() {
	if d.slots == nil {
		d.slots, d.shift = make([]distinctSlot, 16), 64-4
	}
	if d.stamp++; d.stamp == 0 { // wrapped: old stamps would read as live
		clear(d.slots)
		d.stamp = 1
	}
	d.n = 0
}

func (d *distinctSet) add(v uint64) { d.tag(v) }

// tag adds v if it is new, with tag -1, and returns its tag for the
// caller to read and set. The pointer is valid until the next add.
// The set must have been reset once.
func (d *distinctSet) tag(v uint64) *int32 {
	for i := v * 0x9e3779b97f4a7c15 >> d.shift; ; i = (i + 1) & uint64(len(d.slots)-1) {
		if s := &d.slots[i]; s.stamp != d.stamp {
			if 2*(d.n+1) > len(d.slots) {
				d.grow()
				return d.tag(v)
			}
			*s = distinctSlot{key: v, stamp: d.stamp, tag: -1}
			d.n++
			return &s.tag
		} else if s.key == v {
			return &s.tag
		}
	}
}

// grow doubles the table, keeping the values added since reset.
func (d *distinctSet) grow() {
	old, stamp := d.slots, d.stamp
	log := bits.Len(uint(len(old)))
	d.slots, d.shift, d.stamp = make([]distinctSlot, 1<<log), uint(64-log), 1
	for _, s := range old {
		if s.stamp != stamp {
			continue
		}
		i := s.key * 0x9e3779b97f4a7c15 >> d.shift
		for d.slots[i].stamp == d.stamp {
			i = (i + 1) & uint64(len(d.slots)-1)
		}
		d.slots[i] = distinctSlot{key: s.key, stamp: d.stamp, tag: s.tag}
	}
}

// Finish seals the builder into a Replay.
func (b *ReplayBuilder) Finish() (*Replay, error) {
	if b.overflow {
		return nil, fmt.Errorf("traceio: replay %s: %d addresses overflow the 32-bit offset index",
			b.name, len(b.arena))
	}
	r := &Replay{name: b.name, arena: b.arena, offs: b.offs}
	if b.counted > 0 {
		r.footprint = (b.sum + b.counted - 1) / b.counted
	}
	return r, nil
}

// NewReplay builds a Replay for one slot from per-warp address
// streams (warps[g][seq] is warp g's seq-th line-aligned address).
func NewReplay(name string, warps [][]uint64) (*Replay, error) {
	var addrs int
	for _, stream := range warps {
		addrs += len(stream)
	}
	b := NewReplayBuilder(name, len(warps), addrs)
	for _, stream := range warps {
		b.Warp(stream)
	}
	return b.Finish()
}

// numWarps returns how many warp streams the replay holds.
func (r *Replay) numWarps() int { return len(r.offs) - 1 }

// warpStream returns warp g's recorded stream as a view into the
// arena. Callers must not mutate it.
func (r *Replay) warpStream(g int) []uint64 {
	return r.arena[r.offs[g]:r.offs[g+1]]
}

// Addr implements trace.Pattern. The in-range case — every access of
// a container-built kernel — takes two folded unsigned compares and
// two contiguous loads; the wrap arithmetic is kept off that path.
func (r *Replay) Addr(c trace.Ctx, seq int) uint64 {
	nw := len(r.offs) - 1
	if nw <= 0 {
		return 0
	}
	g := c.GlobalWarp
	if uint(g) >= uint(nw) {
		g = ((g % nw) + nw) % nw
	}
	lo, hi := int(r.offs[g]), int(r.offs[g+1])
	n := hi - lo
	if uint(seq) >= uint(n) {
		if n == 0 {
			return 0
		}
		seq = ((seq % n) + n) % n
	}
	return r.arena[lo+seq]
}

// Footprint implements trace.Pattern.
func (r *Replay) Footprint() int { return r.footprint }

// Reseed implements trace.Reseeder: a recorded stream has no
// randomness left to perturb.
func (r *Replay) Reseed(delta uint64) trace.Pattern { return r }

// String identifies the slot in logs and errors.
func (r *Replay) String() string { return fmt.Sprintf("replay(%s)", r.name) }

// Kernel builds the replayable trace.Kernel for one recorded kernel:
// the recorded body and launch geometry with every pattern slot backed
// by a Replay, and PerWarpIters pinning each warp to its recorded
// iteration count.
func (kt *KernelTrace) Kernel() (*trace.Kernel, error) {
	if err := kt.validate(); err != nil {
		return nil, fmt.Errorf("traceio: kernel %s: %w", kt.Name, err)
	}
	pats := make([]trace.Pattern, kt.Slots)
	for s := range pats {
		rep, err := NewReplay(fmt.Sprintf("%s/slot%d", kt.Name, s), kt.Streams[s])
		if err != nil {
			return nil, fmt.Errorf("traceio: kernel %s: %w", kt.Name, err)
		}
		pats[s] = rep
	}
	return kernelFromMeta(&kt.KernelMeta, pats)
}

// kernelFromMeta assembles and validates the trace.Kernel shared by
// the in-memory (KernelTrace) and streaming (ReadWorkload) paths.
func kernelFromMeta(m *KernelMeta, pats []trace.Pattern) (*trace.Kernel, error) {
	k := &trace.Kernel{
		Name:             m.Name,
		Body:             append([]trace.Instr(nil), m.Body...),
		Patterns:         pats,
		Iters:            m.MaxIters(),
		PerWarpIters:     append([]int(nil), m.WarpIters...),
		WarpsPerBlock:    m.WarpsPerBlock,
		Blocks:           m.Blocks,
		MaxWarpsPerSched: m.MaxWarpsPerSched,
		MaxBlocksPerSM:   m.MaxBlocksPerSM,
	}
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("traceio: kernel %s: %w", m.Name, err)
	}
	return k, nil
}

// Workload builds a runnable sim.Workload that replays the trace
// deterministically through the simulator.
func (t *Trace) Workload() (*sim.Workload, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	w := &sim.Workload{Name: t.Name, MemorySensitive: t.MemorySensitive}
	for _, kt := range t.Kernels {
		k, err := kt.Kernel()
		if err != nil {
			return nil, err
		}
		w.Kernels = append(w.Kernels, k)
	}
	return w, nil
}
