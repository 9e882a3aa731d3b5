// Package sim is the cycle-level GPU simulator that everything else in
// the reproduction runs on. It drives the SM schedulers cycle by cycle,
// executes kernel instruction streams, and times memory through an
// analytic queueing network (L1 MSHRs -> crossbar -> banked L2 -> DRAM
// partitions), skipping idle stretches from one fill or clock marker to
// the next. The design goal is the same fidelity envelope the paper's
// analytical model (§V-A) reasons over: latency tolerance from warp
// concurrency, cache thrashing, MSHR serialisation and bandwidth
// congestion.
package sim

import (
	"fmt"
	"math"

	"poise/internal/cache"
	"poise/internal/config"
	"poise/internal/dram"
	"poise/internal/noc"
	"poise/internal/sm"
	"poise/internal/trace"
)

// Never is the policy return value meaning "do not call Step again".
const Never = int64(math.MaxInt64)

// Policy steers warp-tuples (and optionally cache behaviour) at
// runtime. Implementations live in package sched; package poise
// provides the HIE-backed policy.
type Policy interface {
	// Name identifies the policy in results and tables.
	Name() string
	// KernelStart is called before the first cycle of each kernel. The
	// policy applies initial tuples and returns the first cycle at which
	// it wants Step (Never for static policies).
	KernelStart(g *GPU, k *trace.Kernel) int64
	// Step observes counters and steers; it returns the next activation
	// cycle (must be > now, or Never).
	Step(g *GPU, now int64) int64
}

// l2Bank is one bank of the shared L2: a tag/data array plus a
// serialising server for bandwidth.
type l2Bank struct {
	c        *cache.Cache
	nextFree int64
}

// GPU is the simulated device. Build one with New, then Run kernels on
// it. A GPU is single-goroutine; run concurrent simulations on separate
// GPU values.
type GPU struct {
	Cfg   config.Config
	SMs   []*sm.SM
	NoC   *noc.Crossbar
	DRAM  *dram.DRAM
	banks []l2Bank

	l2Service int64
	l2Pipe    int64
	respFlits int

	events fillQueue // fills in flight
	wakes  wakeRing  // clock markers: dependent-ALU and L1-hit returns
	rq     readyQueue
	now    int64

	// policyNext parks the in-flight policy activation cycle when a run
	// is interrupted, so a restored run resumes the Step schedule
	// exactly (it is live only between ErrInterrupted and the snapshot;
	// the running loop keeps it in a local).
	policyNext int64

	// stateSize is the length of the last mid-kernel state this GPU
	// restored or wrote; SnapshotKernel sizes its buffer from it.
	stateSize int

	// blockScratch is reused by residentBlocks to count distinct live
	// blocks without allocating on every launch attempt.
	blockScratch []int32

	kernel   *trace.Kernel
	bodyLen  int
	nextBlk  int
	doneWarp int
	total    int

	// L2 aggregate stats (across banks) for the running kernel.
	L2Accesses int64
	L2Hits     int64

	// TupleTrace records every tuple change when tracing is enabled
	// (Fig. 17 case study).
	TraceTuples bool
	TupleLog    []TupleEvent
}

// TupleEvent is one policy decision captured for the case study.
type TupleEvent struct {
	Cycle     int64
	SM        int
	N, P      int
	Predicted bool // true for raw HIE predictions, false after search
}

// New builds a GPU for the configuration.
func New(cfg config.Config) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{
		Cfg:       cfg,
		NoC:       noc.New(cfg),
		DRAM:      dram.New(cfg),
		l2Service: 4,
		l2Pipe:    int64(cfg.L2LatencyCore),
		respFlits: cfg.L1.LineBytes/cfg.NoCFlitBytes + 1,
	}
	for i := 0; i < cfg.NumSMs; i++ {
		s, err := sm.NewSM(i, cfg)
		if err != nil {
			return nil, err
		}
		g.SMs = append(g.SMs, s)
	}
	// Steady-state runs must not allocate per cycle: the fill rings,
	// ready queue and launch scratch are sized here and only emptied
	// between runs, so a warmed (pooled) GPU reuses their storage.
	g.events.init(cfg.NumSMs, cfg.L1.MSHRs)
	g.wakes.init(max(cfg.ALULatency, cfg.L1HitLatency))
	g.rq.init(g)
	g.blockScratch = make([]int32, 0, cfg.MaxBlocksPerSM+1)
	perBank := config.CacheConfig{
		SizeBytes: cfg.L2.SizeBytes / cfg.L2Banks,
		LineBytes: cfg.L2.LineBytes,
		Ways:      cfg.L2.Ways,
		Index:     config.IndexLinear,
	}
	for i := 0; i < cfg.L2Banks; i++ {
		c, err := cache.New(perBank)
		if err != nil {
			return nil, fmt.Errorf("L2 bank: %w", err)
		}
		g.banks = append(g.banks, l2Bank{c: c})
	}
	return g, nil
}

// Reset restores the GPU to its just-constructed state so it can be
// reused for another run (see Release). Every layer resets in place:
// SMs (schedulers, L1, MSHRs, counters), L2 banks, crossbar, DRAM and
// the fill rings. The invariant — enforced by TestPoolResetBitIdentical
// with reflect.DeepEqual against a freshly built GPU — is that no
// trace of a previous kernel survives, so a pooled GPU produces
// bit-identical results to a fresh one. The large fixed-size arrays
// (cache tag stores, warp slots, port/partition servers) are zeroed in
// place, which is where the pool's allocation savings come from (the
// fill rings among them); the ready queue and launch scratch are
// truncated rather than freed (reflect.DeepEqual cannot see capacity),
// so a pooled GPU keeps their storage across runs.
func (g *GPU) Reset() {
	for _, s := range g.SMs {
		s.Reset()
	}
	g.NoC.Reset()
	g.DRAM.Reset()
	for i := range g.banks {
		g.banks[i].nextFree = 0
		g.banks[i].c.Reset()
	}
	g.events.reset()
	g.wakes.reset()
	g.rq.resetState()
	g.blockScratch = g.blockScratch[:0]
	g.now = 0
	g.policyNext = 0
	g.stateSize = 0
	g.kernel = nil
	g.bodyLen = 0
	g.nextBlk = 0
	g.doneWarp = 0
	g.total = 0
	g.L2Accesses, g.L2Hits = 0, 0
	g.TraceTuples = false
	g.TupleLog = nil
}

// Now returns the current simulation cycle.
func (g *GPU) Now() int64 { return g.now }

// MaxN returns the per-scheduler warp bound for the running kernel:
// the hardware limit capped by the kernel's occupancy constraint. This
// is the "maximum warps supported per scheduler" that Poise's scaling
// step (paper §V-C) normalises against.
func (g *GPU) MaxN() int { return KernelMaxN(g.Cfg, g.kernel) }

// KernelName names the running kernel, what per-kernel tables key on.
func (g *GPU) KernelName() string { return g.kernel.Name }

// SetTupleAll applies a warp-tuple on every SM.
func (g *GPU) SetTupleAll(n, p int) {
	for i := range g.SMs {
		g.SetTuple(i, n, p)
	}
}

// SetTuple applies a warp-tuple on one SM and logs it when tracing.
func (g *GPU) SetTuple(smID, n, p int) {
	g.SMs[smID].SetTuple(n, p)
	// refreshBits cleared every wake hint on the SM: requeue its
	// schedulers so the ready engine attempts them exactly when the
	// dense scan would (no-op outside a ready-engine run).
	if g.rq.active {
		for i := range g.SMs[smID].Scheds {
			g.requeueSched(g.SMs[smID], i)
		}
	}
	if g.TraceTuples {
		nn, pp := g.SMs[smID].Tuple()
		g.TupleLog = append(g.TupleLog, TupleEvent{Cycle: g.now, SM: smID, N: nn, P: pp})
	}
}

// LogPrediction records a raw prediction event for the case study.
func (g *GPU) LogPrediction(smID, n, p int) {
	if g.TraceTuples {
		g.TupleLog = append(g.TupleLog, TupleEvent{Cycle: g.now, SM: smID, N: n, P: p, Predicted: true})
	}
}

func (g *GPU) bankFor(lineAddr uint64) *l2Bank {
	h := lineAddr
	h ^= h >> 7
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 33
	return &g.banks[h%uint64(len(g.banks))]
}

// resetMemSide drains the timing servers and zeroes the per-kernel
// aggregate stats; warm keeps the L2 banks' tags (and their own
// statistics) from the previous kernel of the workload.
func (g *GPU) resetMemSide(warm bool) {
	g.NoC.Reset()
	g.DRAM.Reset()
	for i := range g.banks {
		g.banks[i].nextFree = 0
		if !warm {
			g.banks[i].c.Flush()
			g.banks[i].c.Stats = cache.Stats{}
		}
	}
	g.L2Accesses, g.L2Hits = 0, 0
}

// launchBlocks fills SM residency with blocks from the grid.
func (g *GPU) launchBlocks() {
	k := g.kernel
	maxBlocks := g.Cfg.MaxBlocksPerSM
	if k.MaxBlocksPerSM > 0 && k.MaxBlocksPerSM < maxBlocks {
		maxBlocks = k.MaxBlocksPerSM
	}
	for {
		launched := false
		for _, s := range g.SMs {
			if g.nextBlk >= k.Blocks {
				return
			}
			if g.residentBlocks(s) >= maxBlocks {
				continue
			}
			if !g.blockFits(s) {
				continue
			}
			g.launchBlockOn(s, g.nextBlk)
			g.nextBlk++
			launched = true
		}
		if !launched {
			return
		}
	}
}

// residentBlocks counts distinct live blocks on an SM. The distinct
// set is tiny (bounded by MaxBlocksPerSM), so a linear scan over a
// reused scratch slice beats allocating a map per launch attempt.
func (g *GPU) residentBlocks(s *sm.SM) int {
	seen := g.blockScratch[:0]
	for _, sch := range s.Scheds {
		for i := range sch.Slots {
			w := &sch.Slots[i]
			if !w.Active {
				continue
			}
			dup := false
			for _, b := range seen {
				if b == w.Block {
					dup = true
					break
				}
			}
			if !dup {
				seen = append(seen, w.Block)
			}
		}
	}
	g.blockScratch = seen[:0]
	return len(seen)
}

// blockFits reports whether one more block's warps fit in the SM's
// scheduler slots under the kernel's occupancy cap.
func (g *GPU) blockFits(s *sm.SM) bool {
	k := g.kernel
	capPer := g.MaxN()
	free := 0
	for _, sch := range s.Scheds {
		f := capPer - sch.ActiveWarps()
		if f > 0 {
			free += f
		}
	}
	return free >= k.WarpsPerBlock
}

// launchBlockOn places block b's warps on SM s, striping across the
// schedulers.
func (g *GPU) launchBlockOn(s *sm.SM, b int) {
	k := g.kernel
	capPer := g.MaxN()
	sched := 0
	for wi := 0; wi < k.WarpsPerBlock; wi++ {
		global := int32(b*k.WarpsPerBlock + wi)
		placed := false
		for try := 0; try < len(s.Scheds); try++ {
			idx := sched
			sch := s.Scheds[idx]
			sched = (sched + 1) % len(s.Scheds)
			if sch.ActiveWarps() >= capPer {
				continue
			}
			iters := k.WarpIters(int(global))
			if sch.Launch(global, int32(b), int32(wi), iters) >= 0 {
				g.noteLaunch(s, idx)
				placed = true
				break
			}
		}
		if !placed {
			// blockFits guaranteed room; this is a programming error.
			panic("sim: block placement failed despite capacity check")
		}
	}
}
