package sim

import (
	"sync"

	"poise/internal/config"
)

// The process's GPUs. Building a GPU allocates the whole memory
// hierarchy (tag stores, warp slots, MSHR files, L2 banks, DRAM
// servers), so everything that simulates outside a test — the drivers,
// sweep points, training feature runs, experiment cells, fleet leases —
// takes its GPU from Acquire and hands it back with Release: a process
// builds a configuration's GPUs once, and nobody has a pool to pass.
//
// Correctness rests on one invariant: Release resets the GPU to a state
// reflect.DeepEqual-identical to fresh construction
// (TestPoolResetBitIdentical), so a recycled GPU cannot perturb a
// simulation at any worker count and reuse order.
//
// What is kept is bounded, because the pool lives as long as the
// process: at most maxIdle GPUs of one configuration are parked (one
// more handed back is left to the collector), and free lists are held
// for at most maxPools configurations (one more empties them all).
const (
	maxIdle  = 16
	maxPools = 16
)

// gpuPool is a free list of reset GPUs per configuration. A
// configuration is validated when it first gets a list, so a bad one
// fails before anything is built.
type gpuPool struct {
	mu   sync.Mutex
	free map[config.Config][]*GPU

	// Construction against reuse, for the tests: on a large sweep builds
	// converges to the worker count, reuses to the grid size.
	builds, reuses int64
}

func newGPUPool() *gpuPool { return &gpuPool{free: map[config.Config][]*GPU{}} }

var drivers = newGPUPool() // the process's one pool

// list returns cfg's free list, opening one when cfg has none. The
// caller holds gp.mu.
func (gp *gpuPool) list(cfg config.Config) ([]*GPU, error) {
	if free, ok := gp.free[cfg]; ok {
		return free, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gp.free) >= maxPools {
		clear(gp.free)
	}
	gp.free[cfg] = nil
	return nil, nil
}

func (gp *gpuPool) acquire(cfg config.Config) (*GPU, error) {
	gp.mu.Lock()
	free, err := gp.list(cfg)
	if err != nil {
		gp.mu.Unlock()
		return nil, err
	}
	if n := len(free); n > 0 {
		g := free[n-1]
		free[n-1] = nil
		gp.free[cfg] = free[:n-1]
		gp.reuses++
		gp.mu.Unlock()
		return g, nil
	}
	gp.builds++
	gp.mu.Unlock()
	return New(cfg)
}

func (gp *gpuPool) release(g *GPU) {
	if g == nil {
		return
	}
	g.Reset()
	gp.mu.Lock()
	defer gp.mu.Unlock()
	if free, err := gp.list(g.Cfg); err == nil && len(free) < maxIdle {
		gp.free[g.Cfg] = append(free, g)
	}
}

// Acquire returns a fresh-state GPU of configuration cfg, building one
// only when none is parked.
func Acquire(cfg config.Config) (*GPU, error) { return drivers.acquire(cfg) }

// Release resets g and parks it for the next Acquire of its
// configuration. The GPU must not be running.
func Release(g *GPU) { drivers.release(g) }
