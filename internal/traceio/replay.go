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
// warp. A replayBuilder appends warps in order, so the arena can be
// filled directly from a Scanner without ever holding per-warp slices.
// The same arenas are a KernelTrace's Streams: a recorded kernel has
// no other in-memory form.
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

// replayBuilder accumulates one slot's per-warp streams into a flat
// Replay. Call warp once per global warp, in warp order, then finish.
type replayBuilder struct {
	name     string
	arena    []uint64
	offs     []uint32
	overflow bool
}

// newReplayBuilder starts a builder for one slot. If total warps and
// total addresses are known ahead of time (the poisetrace header
// declares both), sizing hints avoid regrowth; pass 0 when unknown.
func newReplayBuilder(name string, warpsHint, addrsHint int) *replayBuilder {
	b := &replayBuilder{name: name}
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

// warp appends the next warp's address stream. The slice is copied;
// callers may reuse it (Scanner records do).
func (b *replayBuilder) warp(stream []uint64) {
	b.arena = append(b.arena, stream...)
	if len(b.arena) > math.MaxUint32 {
		b.overflow = true
	}
	b.offs = append(b.offs, uint32(len(b.arena)))
}

// finish seals the builder into a Replay.
func (b *replayBuilder) finish() (*Replay, error) {
	if b.overflow {
		return nil, errOffsetOverflow(b.name, len(b.arena))
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
	b := newReplayBuilder(name, len(warps), addrs)
	for _, stream := range warps {
		b.warp(stream)
	}
	return b.finish()
}

// errOffsetOverflow is the verdict on a slot too large for a Replay's
// 32-bit offsets.
func errOffsetOverflow(name string, addrs int) error {
	return fmt.Errorf("traceio: replay %s: %d addresses overflow the 32-bit offset index", name, addrs)
}

// slotName names slot s of kernel in replay logs and errors.
func slotName(kernel string, s int) string { return fmt.Sprintf("%s/slot%d", kernel, s) }

// warps returns the number of warp streams the arena holds.
func (r *Replay) warps() int { return max(len(r.offs)-1, 0) }

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

// Workload builds a runnable sim.Workload that replays the trace
// deterministically through the simulator. Its patterns are the
// trace's own arenas, shared, not copied.
func (t *Trace) Workload() (*sim.Workload, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t.workload(), nil
}

// workload builds the replaying workload of a valid trace: the
// recorded bodies and launch geometry with every pattern slot backed
// by its Replay, and PerWarpIters pinning each warp to its recorded
// iteration count. Validate covers everything trace.Kernel.Validate
// checks, so the kernels are valid by construction.
func (t *Trace) workload() *sim.Workload {
	w := &sim.Workload{Name: t.Name, MemorySensitive: t.MemorySensitive}
	for _, kt := range t.Kernels {
		pats := make([]trace.Pattern, kt.Slots)
		for s, rep := range kt.Streams {
			pats[s] = rep
		}
		w.Kernels = append(w.Kernels, &trace.Kernel{
			Name:             kt.Name,
			Body:             append([]trace.Instr(nil), kt.Body...),
			Patterns:         pats,
			Iters:            kt.MaxIters(),
			PerWarpIters:     append([]int(nil), kt.WarpIters...),
			WarpsPerBlock:    kt.WarpsPerBlock,
			Blocks:           kt.Blocks,
			MaxWarpsPerSched: kt.MaxWarpsPerSched,
			MaxBlocksPerSM:   kt.MaxBlocksPerSM,
		})
	}
	return w
}
