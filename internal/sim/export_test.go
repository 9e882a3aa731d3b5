package sim

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
