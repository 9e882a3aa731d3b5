package sim

import (
	"sync"

	"poise/internal/config"
)

// Pool recycles GPU instances across simulation tasks. Building a GPU
// allocates the whole memory hierarchy (per-SM tag stores, warp slots,
// MSHR files, L2 banks, DRAM servers); a large profile sweep that
// builds one per grid point spends a measurable slice of its wall
// clock in the allocator and GC. A Pool instead keeps one GPU per
// in-flight worker and resets it between runs.
//
// Correctness rests on a single invariant: Put resets the GPU to a
// state reflect.DeepEqual-identical to fresh construction (verified by
// TestPoolResetBitIdentical), so a recycled GPU cannot perturb a
// simulation — sweeps through a Pool are bit-identical to
// fresh-GPU-per-point sweeps at any worker count and reuse order.
//
// Pool is safe for concurrent use; under runner.Map each worker
// effectively pins one GPU and reuses it task after task, which is
// the per-worker reuse pattern large sweeps want.
type Pool struct {
	cfg config.Config

	mu   sync.Mutex
	free []*GPU

	// Construction against reuse, for the tests' Stats: on a large sweep
	// builds converges to the worker count, reuses to the grid size.
	builds int64
	reuses int64
}

// What is kept is bounded, because the one PoolSet outside the tests
// (Acquire) lives as long as the process: a Pool parks at most maxIdle
// GPUs (one more handed back is left to the collector) and a PoolSet
// holds pools for at most maxPools configurations (one more empties
// it). Both are far above what a sweep's workers or a grid's platforms
// ask for.
const (
	maxIdle  = 16
	maxPools = 16
)

// NewPool builds a pool that constructs GPUs with New(cfg) on demand.
// The configuration is validated eagerly so a bad one fails at pool
// construction, not on some worker's first Get.
func NewPool(cfg config.Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pool{cfg: cfg}, nil
}

// Get returns a fresh-state GPU, recycling a parked one when available.
func (p *Pool) Get() (*GPU, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		g := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		p.mu.Unlock()
		return g, nil
	}
	p.builds++
	p.mu.Unlock()
	return New(p.cfg)
}

// Put resets g to its fresh-construction state and parks it for
// reuse, unless maxIdle are parked already. Putting a GPU that is still
// running is a caller bug. A GPU built with another configuration is
// dropped, not parked: a pool that outlives one call must never hand a
// later Get the wrong machine.
func (p *Pool) Put(g *GPU) {
	if g == nil || g.Cfg != p.cfg {
		return
	}
	g.Reset()
	p.mu.Lock()
	if len(p.free) < maxIdle {
		p.free = append(p.free, g)
	}
	p.mu.Unlock()
}

// PoolSet hands out GPUs from one Pool per distinct configuration —
// the multi-configuration analogue experiment grids need when schemes
// alter the platform per cell (Fig. 12's grown linear-indexed L1,
// Fig. 16's and Table III's 64x Pbest probes run next to baseline
// cells in the same grid). Each configuration gets the same
// worker-pinned reuse discipline a single-config Pool provides, with
// the same correctness story: Put resets to fresh-construction state,
// so recycled GPUs cannot perturb results.
type PoolSet struct {
	mu    sync.Mutex
	pools map[config.Config]*Pool
}

// NewPoolSet builds an empty pool set; pools are created lazily per
// configuration on first Get.
func NewPoolSet() *PoolSet {
	return &PoolSet{pools: map[config.Config]*Pool{}}
}

// pool returns (creating if needed) the pool for cfg.
func (ps *PoolSet) pool(cfg config.Config) (*Pool, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if p, ok := ps.pools[cfg]; ok {
		return p, nil
	}
	p, err := NewPool(cfg)
	if err != nil {
		return nil, err
	}
	if len(ps.pools) >= maxPools {
		clear(ps.pools)
	}
	ps.pools[cfg] = p
	return p, nil
}

// Get returns a fresh-state GPU for cfg, recycling a parked one built
// with the same configuration when available.
func (ps *PoolSet) Get(cfg config.Config) (*GPU, error) {
	p, err := ps.pool(cfg)
	if err != nil {
		return nil, err
	}
	return p.Get()
}

// Put resets g and parks it in cfg's pool. cfg must be the
// configuration g was obtained with.
func (ps *PoolSet) Put(cfg config.Config, g *GPU) {
	if g == nil {
		return
	}
	p, err := ps.pool(cfg)
	if err != nil {
		return
	}
	p.Put(g)
}

// drivers is the process's one set of machines. Everything that
// simulates outside a test takes its GPU here — the package-level
// drivers, sweep points, training feature runs, experiment cells, fleet
// leases — so a process builds a configuration's GPUs once, however many
// sweeps, harnesses or leases run on them, and nobody has a pool to pass.
var drivers = NewPoolSet()

// Acquire returns a fresh-state GPU of configuration cfg from the
// process-wide set, building one only when none is parked.
func Acquire(cfg config.Config) (*GPU, error) { return drivers.Get(cfg) }

// Release resets g and parks it for the next Acquire of its
// configuration. The GPU must not be running.
func Release(g *GPU) {
	if g != nil {
		drivers.Put(g.Cfg, g)
	}
}
