package traceio

import (
	"fmt"
	"math"

	"poise/internal/sim"
	"poise/internal/trace"
)

// Replay plays one recorded address-stream slot back through the
// simulator: Addr(c, seq) returns the recorded address of warp
// c.GlobalWarp's seq-th access. It implements trace.Pattern. Recorded
// streams carry no randomness, so trace.Reseed leaves a Replay as it
// is and catalogue seeds pass through replayed workloads unchanged.
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
}

// ReplayBuilder accumulates one slot's per-warp streams into a flat
// Replay. Call Warp once per global warp, in warp order, then Finish.
type ReplayBuilder struct {
	name     string
	arena    []uint64
	offs     []uint32
	overflow bool
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
}

// Finish seals the builder into a Replay.
func (b *ReplayBuilder) Finish() (*Replay, error) {
	if b.overflow {
		return nil, fmt.Errorf("traceio: replay %s: %d addresses overflow the 32-bit offset index",
			b.name, len(b.arena))
	}
	return &Replay{name: b.name, arena: b.arena, offs: b.offs}, nil
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
