package sim

import (
	"fmt"
	"math/bits"

	"poise/internal/config"
	"poise/internal/snap"
)

// ClockMarkers returns how many cycles are marked in the wake ring
// (test-only window onto the loop's event state).
func (g *GPU) ClockMarkers() int { return g.wakes.marked }

// FillsInFlight returns how many fills are queued over all SMs.
func (g *GPU) FillsInFlight() int { return g.events.len() }

// FillCapacity returns how many fills the GPU has storage for.
func (g *GPU) FillCapacity() int { return cap(g.events.slots) }

// SnapshotKernelWithFills is SnapshotKernel with the fills in flight
// replaced by the given {cycle, sm, line} triples, queued on numSMs
// rings of perSM slots. Neither need fit the GPU: tests build hostile
// payloads with it.
func (g *GPU) SnapshotKernelWithFills(p Policy, numSMs, perSM int, fills [][3]int64) ([]byte, error) {
	saved := g.events
	defer func() { g.events = saved }()
	g.events = fillQueue{}
	g.events.init(numSMs, perSM)
	for _, f := range fills {
		g.events.insert(event{cycle: f[0], sm: int32(f[1]), line: uint64(f[2])})
	}
	return g.SnapshotKernel(p)
}

// Capturer returns a function that takes the checkpoint a preemptible
// run of w would take with its first kernel interrupted where g stands.
func (g *GPU) Capturer(w *Workload, p Policy) func() (*Checkpoint, error) {
	agg := newWorkloadAgg(w, p)
	return func() (*Checkpoint, error) { return g.checkpoint(w, p, agg) }
}

// SnapshotMachine writes the GPU's machine state with no kernel
// running: the payload of a kernel boundary, which no product code
// writes.
func (g *GPU) SnapshotMachine() []byte {
	w := snap.NewWriter()
	g.walk(snap.Out(w), false)
	return w.Data()
}

// BurstsInFlight returns how many schedulers are inside an issue burst
// at the current cycle. Only code that runs inside a visit (an address
// pattern) can see one: bursts are settled before anything else looks.
func (g *GPU) BurstsInFlight() int {
	n := 0
	for _, end := range g.rq.burstEnd {
		if end > g.now {
			n++
		}
	}
	return n
}

// CheckBurstBooks compares the burst calendar with burstEnd, from
// inside a visit like BurstsInFlight: every scheduler whose burstEnd
// lies ahead of now must sit on the calendar under that cycle, off the
// hot set and in mode hot; the calendar must hold that many keys and no
// more (so nobody else sits on it, and nobody twice), and bursting must
// say the same. It also returns the most bursts filed under one cycle.
func (g *GPU) CheckBurstBooks() (together int, err error) {
	rq := &g.rq
	words := len(rq.hot)
	inFlight := 0
	for key, end := range rq.burstEnd {
		if end <= g.now {
			continue
		}
		inFlight++
		word, bit := key>>6, uint64(1)<<(key&63)
		switch {
		case rq.ring[int(end&ringMask)*words+word]&bit == 0:
			return 0, fmt.Errorf("cycle %d: scheduler %d bursts until %d and is not filed under it", g.now, key, end)
		case rq.hot[word]&bit != 0:
			return 0, fmt.Errorf("cycle %d: scheduler %d bursts until %d and is on the hot set", g.now, key, end)
		case rq.mode[key] != schedHot:
			return 0, fmt.Errorf("cycle %d: scheduler %d bursts until %d in mode %d", g.now, key, end, rq.mode[key])
		}
	}
	filed := 0
	for slot := 0; slot < ringSlots; slot++ {
		n := 0
		for _, w := range rq.ring[slot*words:][:words] {
			n += bits.OnesCount64(w)
		}
		filed += n
		together = max(together, n)
	}
	if filed != inFlight || rq.bursting != inFlight {
		return 0, fmt.Errorf("cycle %d: %d bursts in flight, %d keys on the calendar, the counter says %d",
			g.now, inFlight, filed, rq.bursting)
	}
	return together, nil
}

// SetCap replaces the memo's entry bound; call it on an empty memo.
func (m *RunMemo) SetCap(n int) { m.runs.Cap = n }

// The pool bounds.
const (
	MaxIdle  = maxIdle
	MaxPools = maxPools
)

// GPUPool is the kind of pool behind Acquire and Release.
type GPUPool = gpuPool

// Drivers is the process's pool, the one Acquire and Release use.
func Drivers() *GPUPool { return drivers }

// FreshPool is an empty pool of the process pool's kind.
func FreshPool() *GPUPool { return newGPUPool() }

func (gp *gpuPool) Get(cfg config.Config) (*GPU, error) { return gp.acquire(cfg) }

func (gp *gpuPool) Put(g *GPU) { gp.release(g) }

// Stats reports construction vs reuse counts: on a large sweep builds
// converges to the worker count while reuses approaches the grid size.
func (gp *gpuPool) Stats() (builds, reuses int64) {
	gp.mu.Lock()
	defer gp.mu.Unlock()
	return gp.builds, gp.reuses
}

// Idle returns how many reset GPUs of cfg are parked.
func (gp *gpuPool) Idle(cfg config.Config) int {
	gp.mu.Lock()
	defer gp.mu.Unlock()
	return len(gp.free[cfg])
}

// Configs returns how many configurations have a free list.
func (gp *gpuPool) Configs() int {
	gp.mu.Lock()
	defer gp.mu.Unlock()
	return len(gp.free)
}
