package sim

// ClockMarkers returns how many cycles are marked in the wake ring
// (test-only window onto the loop's event state).
func (g *GPU) ClockMarkers() int { return g.wakes.marked }
