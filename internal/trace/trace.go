// Package trace models GPU kernels as parameterised instruction streams.
//
// The paper's analysis depends on a small number of per-kernel
// characteristics: the number of instructions between adjacent global
// loads (In), the load-to-use dependence distance (which bounds
// instruction-level latency tolerance), the per-warp cache footprint and
// its temporal reuse (intra-warp locality, reuse distance R), and the
// fraction of accesses that hit lines brought in by *other* warps
// (inter-warp locality). A kernel here is a loop body — ALU ops, loads
// and stores — executed Iters times per warp, with one address Pattern
// per load slot. Composing the pattern primitives below reproduces the
// locality signatures of every benchmark in the paper's Table IIIa
// (see package workloads).
//
// Following the paper's modelling assumption (§V-A), each warp load is
// a single fully-coalesced request for one cache line.
package trace

// OpKind is the class of one instruction in a kernel body.
type OpKind uint8

const (
	// OpALU is an arithmetic instruction with no memory access.
	OpALU OpKind = iota
	// OpLoad is a global load; the warp stalls when its program counter
	// reaches the dependent instruction while the load is outstanding.
	OpLoad
	// OpStore is a global store: fire-and-forget write-through traffic.
	OpStore
)

// Instr is one slot in a kernel's loop body.
type Instr struct {
	Kind OpKind
	// Slot identifies the load/store address stream this instruction
	// uses (index into Kernel.Patterns). Only meaningful for memory ops.
	Slot int
	// UseDist is the number of subsequent instructions that are
	// independent of this load. The instruction UseDist+1 positions
	// after the load consumes its value. Only meaningful for OpLoad.
	UseDist int
	// DepALU marks an ALU op that depends on its immediate predecessor,
	// imposing the pipeline latency (Tpipe) before the warp may issue
	// again. Used to model low-ILP compute phases.
	DepALU bool
}

// LineBytes is the cache-line granularity all patterns emit addresses
// at. It matches the 128 B line of the baseline L1/L2.
const LineBytes = 128

// Ctx identifies the warp executing an access, with every coordinate a
// pattern might need to synthesise private or shared address streams.
type Ctx struct {
	GlobalWarp int // unique id across the whole GPU launch
	SM         int
	Sched      int // scheduler within the SM
	Slot       int // warp slot within the scheduler
	Block      int // thread block id
	WarpInBlk  int // warp id within its block
}

// Pattern generates the address stream for one load/store slot.
// seq is the per-warp sequence number of the access (its iteration).
// Implementations must be deterministic pure functions, and must
// derive addresses only from seq and the launch-geometry fields of Ctx
// (GlobalWarp, Block, WarpInBlk) — never the placement fields (SM,
// Sched, Slot), which vary with the scheduling policy. This is what
// makes a kernel's address streams policy-independent, and what lets
// package traceio record a workload once and replay it exactly.
type Pattern interface {
	// Addr returns a LineBytes-aligned byte address.
	Addr(c Ctx, seq int) uint64
}

// mix is a splitmix64-style finaliser used by the irregular patterns;
// deterministic and cheap.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Region bases keep the streams of different slots and warps disjoint
// unless sharing is intended. Each pattern owns a Region (a namespace
// id); private per-warp sub-regions are carved below it.
const (
	regionShift     = 40 // 1 TB per region
	warpRegionShift = 24 // 16 MB (131072 lines) per warp sub-region
)

func regionBase(region int) uint64 { return uint64(region+1) << regionShift }

// dwell reduces a sequence number by the pattern's dwell factor: the
// number of consecutive accesses that land in the same line. It models
// spatial locality within a 128 B line (a coalesced warp consuming
// 4-byte elements advances to a new line only every 32 iterations);
// this is the locality that survives even a thrashing baseline and
// gives the GTO configuration its nonzero L1 hit rate.
func dwell(seq, d int) int {
	if d <= 1 {
		return seq
	}
	return seq / d
}

// PrivateSweep cyclically sweeps a per-warp private footprint of Lines
// lines, advancing Step lines every Dwell accesses. It yields pure
// intra-warp temporal locality with reuse distance ≈ Lines (for Step
// coprime with Lines). This is the "ii" style pattern: private posting
// lists revisited many times.
type PrivateSweep struct {
	Region int
	Lines  int
	Step   int
	Dwell  int // consecutive accesses per line (spatial locality); 0/1 = none
}

// Addr implements Pattern.
func (p PrivateSweep) Addr(c Ctx, seq int) uint64 {
	line := (dwell(seq, p.Dwell) * p.Step) % p.Lines
	return regionBase(p.Region) +
		uint64(c.GlobalWarp)<<warpRegionShift +
		uint64(line)*LineBytes
}

// SharedSweep cyclically sweeps a footprint of Lines lines shared by
// every warp on the GPU (think: the B matrix of a GEMM or the x vector
// of an SpMV). Lag staggers warps so that a Lag of zero gives in-phase
// access (maximum inter-warp reuse) and larger Lags spread warps across
// the region.
type SharedSweep struct {
	Region int
	Lines  int
	Step   int
	Lag    int // per-warp phase offset in lines
	Dwell  int // consecutive accesses per line
}

// Addr implements Pattern.
func (p SharedSweep) Addr(c Ctx, seq int) uint64 {
	line := (dwell(seq, p.Dwell)*p.Step + c.GlobalWarp*p.Lag) % p.Lines
	if line < 0 {
		line += p.Lines
	}
	return regionBase(p.Region) + uint64(line)*LineBytes
}

// Stream emits a monotonically advancing per-warp stream with no
// temporal reuse (matrix rows read once, points scanned once), though
// Dwell still gives it intra-line spatial locality. The stream wraps at
// WrapLines to bound the address space; make WrapLines much larger than
// any cache to keep it effectively streaming.
type Stream struct {
	Region    int
	WrapLines int
	Dwell     int
}

// Addr implements Pattern.
func (s Stream) Addr(c Ctx, seq int) uint64 {
	wrap := s.WrapLines
	if wrap <= 0 {
		wrap = 1 << 17 // 16 MB default wrap
	}
	return regionBase(s.Region) +
		uint64(c.GlobalWarp)<<warpRegionShift +
		uint64(dwell(seq, s.Dwell)%wrap)*LineBytes
}

// IrregularPrivate touches pseudo-random lines inside a per-warp
// private region of Lines lines — the bfs-style pattern: locality
// exists (the region is finite and revisited) but with a long, noisy
// reuse distance.
type IrregularPrivate struct {
	Region int
	Lines  int
	Seed   uint64
	Dwell  int // consecutive accesses per line (short bursts on a vertex)
}

// Addr implements Pattern.
func (p IrregularPrivate) Addr(c Ctx, seq int) uint64 {
	h := mix(uint64(dwell(seq, p.Dwell))*0x9e3779b97f4a7c15 ^ p.Seed ^ uint64(c.GlobalWarp)<<32)
	line := h % uint64(p.Lines)
	return regionBase(p.Region) +
		uint64(c.GlobalWarp)<<warpRegionShift +
		line*LineBytes
}

// IrregularShared touches pseudo-random lines in a region shared by all
// warps — the cfd/graph-neighbour pattern: each warp rarely re-touches
// its own lines (tiny intra-warp locality) but frequently touches lines
// other warps just fetched (inter-warp locality), with a reuse distance
// on the order of Lines.
type IrregularShared struct {
	Region int
	Lines  int
	Seed   uint64
	// Cluster > 1 makes nearby warps sample nearby lines, raising the
	// short-distance inter-warp hit probability.
	Cluster int
	Dwell   int
}

// Addr implements Pattern.
func (p IrregularShared) Addr(c Ctx, seq int) uint64 {
	cl := p.Cluster
	if cl <= 0 {
		cl = 1
	}
	h := mix(uint64(dwell(seq, p.Dwell))*0x9e3779b97f4a7c15 ^ p.Seed)
	base := h % uint64(p.Lines)
	jitter := mix(h^uint64(c.GlobalWarp)) % uint64(cl)
	line := (base + jitter) % uint64(p.Lines)
	return regionBase(p.Region) + line*LineBytes
}

// Phased switches from pattern A to pattern B once a warp's access
// sequence crosses SwitchAt. It models the dynamic phase changes inside
// monolithic kernels that the paper credits Poise with exploiting
// (§VII-D: syrk, gsmv, mvt, atax beat even Static-Best because offline
// profiling is blind to phases).
type Phased struct {
	SwitchAt int
	A, B     Pattern
}

// Addr implements Pattern.
func (p Phased) Addr(c Ctx, seq int) uint64 {
	if seq < p.SwitchAt {
		return p.A.Addr(c, seq)
	}
	return p.B.Addr(c, seq-p.SwitchAt)
}

// Reseed returns a copy of p with its stochastic address stream
// re-seeded by delta (XOR, so delta 0 is the identity). Deterministic
// sweeps and streams have no randomness and return unchanged, as does
// any pattern this package does not define (a trace replay's recorded
// streams are fixed); Phased recurses into both phases. The workload
// catalogue uses this to derive reproducible workload variants from a
// run seed without touching the calibrated footprints and locality
// structure.
func Reseed(p Pattern, delta uint64) Pattern {
	if delta == 0 {
		return p
	}
	switch q := p.(type) {
	case IrregularPrivate:
		q.Seed ^= delta
		return q
	case IrregularShared:
		q.Seed ^= delta
		return q
	case Phased:
		q.A = Reseed(q.A, delta)
		q.B = Reseed(q.B, delta)
		return q
	}
	return p
}
