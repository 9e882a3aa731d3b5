package sim

import (
	"fmt"

	"poise/internal/trace"
)

// runDense is the reference cycle loop: a dense per-cycle scan that
// calls issueOne on every scheduler of every SM each visited cycle.
// It is the original main loop, kept verbatim as the semantic ground
// truth the ready-queue engine (ready.go) is proven bit-identical
// against over the full catalogue; select it with RunOptions.Engine =
// EngineDense.
func (g *GPU) runDense(k *trace.Kernel, p Policy, opts RunOptions, policyNext int64) (KernelResult, error) {
	for g.doneWarp < g.total {
		// Deliver due events.
		g.deliverDue()
		if p != nil && g.now >= policyNext {
			policyNext = p.Step(g, g.now)
			if policyNext <= g.now {
				policyNext = g.now + 1
			}
		}

		anyIssued := false
		for _, s := range g.SMs {
			for _, sch := range s.Scheds {
				if g.issueOne(s, sch) {
					anyIssued = true
				}
			}
		}

		if g.now >= opts.MaxCycles {
			return KernelResult{}, fmt.Errorf("sim: kernel %s exceeded %d cycles", k.Name, opts.MaxCycles)
		}

		if anyIssued {
			g.now++
			continue
		}
		// Idle: jump to the next interesting cycle.
		next := min(g.nextEventCycle(), policyNext)
		// Lazily-resolved wakes (hit returns, pipeline) are events too,
		// so a Never here with warps outstanding means either parked
		// replayers whose wake-up fills already drained (wake them all
		// and continue) or a genuine deadlock.
		if next == Never {
			if g.wakeAllReplayers() {
				g.now++
				continue
			}
			if g.doneWarp < g.total {
				return KernelResult{}, fmt.Errorf("sim: deadlock at cycle %d in %s (%d/%d warps done)",
					g.now, k.Name, g.doneWarp, g.total)
			}
			break
		}
		if next <= g.now {
			next = g.now + 1
		}
		g.now = next
	}

	return g.collect(k), nil
}
