package trace

import (
	"errors"
	"fmt"
)

// Kernel is one launchable unit of work: a grid of thread blocks, each
// block a set of warps, every warp executing Body for its iteration
// count. Kernels are immutable once built; the simulator only reads.
type Kernel struct {
	Name string

	Body     []Instr   // the loop body
	Patterns []Pattern // one per load/store slot referenced by Body
	Iters    int       // base loop iterations per warp

	// IterJitter spreads per-warp iteration counts in
	// [Iters*(1-j), Iters*(1+j)] deterministically by warp id, modelling
	// irregular work distributions (graph workloads).
	IterJitter float64

	// PerWarpIters, when non-empty, pins each global warp's iteration
	// count exactly (len must equal TotalWarps()), overriding
	// Iters/IterJitter. Trace replay uses it to reproduce recorded
	// per-warp work bit-for-bit.
	PerWarpIters []int

	WarpsPerBlock int
	Blocks        int

	// Occupancy limits (paper §V-C "Scaling": kernels may expose fewer
	// warps than the hardware maximum). Zero means hardware limit.
	MaxWarpsPerSched int
	MaxBlocksPerSM   int

	Seed int64
}

// Validate reports the first structural problem with the kernel.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return errors.New("trace: kernel needs a name")
	}
	if len(k.Body) == 0 {
		return errors.New("trace: empty body")
	}
	if k.Iters <= 0 {
		return errors.New("trace: Iters must be positive")
	}
	if k.WarpsPerBlock <= 0 || k.Blocks <= 0 {
		return errors.New("trace: WarpsPerBlock and Blocks must be positive")
	}
	if k.IterJitter < 0 || k.IterJitter >= 1 {
		return fmt.Errorf("trace: IterJitter %v outside [0,1)", k.IterJitter)
	}
	if len(k.PerWarpIters) > 0 {
		if len(k.PerWarpIters) != k.TotalWarps() {
			return fmt.Errorf("trace: PerWarpIters has %d entries for %d warps",
				len(k.PerWarpIters), k.TotalWarps())
		}
		for w, it := range k.PerWarpIters {
			if it <= 0 {
				return fmt.Errorf("trace: PerWarpIters[%d] = %d, must be positive", w, it)
			}
		}
	}
	for i, p := range k.Patterns {
		if p == nil {
			return fmt.Errorf("trace: pattern slot %d is nil", i)
		}
	}
	for i, ins := range k.Body {
		switch ins.Kind {
		case OpALU:
		case OpLoad, OpStore:
			if ins.Slot < 0 || ins.Slot >= len(k.Patterns) {
				return fmt.Errorf("trace: body[%d] references slot %d of %d patterns",
					i, ins.Slot, len(k.Patterns))
			}
			if ins.Kind == OpLoad && ins.UseDist < 0 {
				return fmt.Errorf("trace: body[%d] negative UseDist", i)
			}
		default:
			return fmt.Errorf("trace: body[%d] unknown op kind %d", i, ins.Kind)
		}
	}
	return nil
}

// WarpIters returns the iteration count for a given global warp,
// applying the deterministic jitter (or the PerWarpIters override).
func (k *Kernel) WarpIters(globalWarp int) int {
	if len(k.PerWarpIters) > 0 {
		if globalWarp >= 0 && globalWarp < len(k.PerWarpIters) {
			return k.PerWarpIters[globalWarp]
		}
		return 1
	}
	if k.IterJitter == 0 {
		return k.Iters
	}
	h := mix(uint64(globalWarp)*0x9e3779b97f4a7c15 ^ uint64(k.Seed))
	// Uniform in [-jitter, +jitter].
	u := (float64(h>>11)/(1<<53))*2 - 1
	it := int(float64(k.Iters) * (1 + k.IterJitter*u))
	if it < 1 {
		it = 1
	}
	return it
}

// TotalWarps returns the number of warps in the grid.
func (k *Kernel) TotalWarps() int { return k.WarpsPerBlock * k.Blocks }

// LoadsPerIter returns the number of load instructions in one body pass.
func (k *Kernel) LoadsPerIter() int {
	n := 0
	for _, ins := range k.Body {
		if ins.Kind == OpLoad {
			n++
		}
	}
	return n
}

// In returns the static instructions-between-global-loads metric of the
// body — the quantity the paper calls In and thresholds against Imax to
// detect compute-intensive kernels. (The hardware inference engine
// measures the dynamic equivalent at runtime.)
func (k *Kernel) In() float64 {
	loads := k.LoadsPerIter()
	if loads == 0 {
		return float64(len(k.Body)) * 1000 // effectively infinite
	}
	return float64(len(k.Body)) / float64(loads)
}

// BodyBuilder assembles kernel bodies. Build bodies with it instead of
// hand-writing Instr slices so the slot bookkeeping stays consistent.
type BodyBuilder struct {
	body  []Instr
	slots int
}

// ALU appends n independent ALU instructions.
func (b *BodyBuilder) ALU(n int) *BodyBuilder {
	for i := 0; i < n; i++ {
		b.body = append(b.body, Instr{Kind: OpALU})
	}
	return b
}

// DepALU appends n serially-dependent ALU instructions (each pays the
// pipeline latency before the warp can issue again).
func (b *BodyBuilder) DepALU(n int) *BodyBuilder {
	for i := 0; i < n; i++ {
		b.body = append(b.body, Instr{Kind: OpALU, DepALU: true})
	}
	return b
}

// Load appends a load on a fresh slot with the given use distance and
// returns the slot index (to pair with a Pattern).
func (b *BodyBuilder) Load(useDist int) int {
	slot := b.slots
	b.slots++
	b.body = append(b.body, Instr{Kind: OpLoad, Slot: slot, UseDist: useDist})
	return slot
}

// Store appends a store on a fresh slot and returns the slot index.
func (b *BodyBuilder) Store() int {
	slot := b.slots
	b.slots++
	b.body = append(b.body, Instr{Kind: OpStore, Slot: slot})
	return slot
}

// Body returns the accumulated instruction slice.
func (b *BodyBuilder) Body() []Instr { return b.body }

// Slots returns how many memory slots were allocated; the kernel must
// supply exactly this many patterns.
func (b *BodyBuilder) Slots() int { return b.slots }
