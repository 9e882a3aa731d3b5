package sim

import (
	"testing"

	"poise/internal/cache"
	"poise/internal/config"
	"poise/internal/snap"
	"poise/internal/snap/snaptest"
	"poise/internal/trace"
)

// stateFields names every field of the GPU and of the loop structures
// it owns that a snapshot does not carry, and why (see sm's list). An
// interrupt settles every blocked span and issue burst before a
// snapshot is taken, which is what makes the ready queue derived.
var stateFields = map[string]string{
	"GPU.Cfg":          "config",
	"GPU.l2Service":    "config",
	"GPU.l2Pipe":       "config",
	"GPU.respFlits":    "config",
	"GPU.stateSize":    "scratch",
	"GPU.blockScratch": "scratch",

	"fillQueue.perSM":  "config",
	"fillQueue.head":   "derived: fillQueue.insert",
	"fillQueue.due":    "derived: fillQueue.insert",
	"fillQueue.min":    "derived: fillQueue.insert",
	"wakeRing.mask":    "config",
	"wakeRing.horizon": "config",

	"readyQueue.perSM":      "config",
	"readyQueue.smOf":       "config",
	"readyQueue.schedOf":    "config",
	"readyQueue.active":     "derived: readyQueue.start",
	"readyQueue.mode":       "derived: readyQueue.start",
	"readyQueue.wakeAt":     "derived: readyQueue.start",
	"readyQueue.spanBase":   "derived: readyQueue.start",
	"readyQueue.spanActive": "derived: readyQueue.start",
	"readyQueue.hot":        "derived: readyQueue.start",
	"readyQueue.woken":      "derived: readyQueue.start",
	"readyQueue.timed":      "derived: readyQueue.start",
	"readyQueue.scanKey":    "scratch",
	"readyQueue.aluRun":     "derived: readyQueue.buildRuns",
	"readyQueue.burstEnd":   "derived: GPU.settleBursts",
	"readyQueue.ring":       "derived: GPU.settleBursts",
	"readyQueue.bursting":   "derived: GPU.settleBursts",
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	cfg := config.Default().Scale(2)
	src, _ := New(cfg)
	dst, _ := New(cfg)
	snaptest.Fill(src, stateFields)
	// What other packages own, through their APIs.
	src.kernel = &trace.Kernel{Name: "k"}
	src.NoC.ReqFlits, src.DRAM.Accesses = 1, 2
	for i := range src.banks {
		src.banks[i].c.Fill(uint64(i)<<12, 1, 2, true)
	}
	for i, s := range src.SMs {
		s.C.Loads = int64(i + 1)
	}
	// The two rings hold what their own operations put there: one fill in
	// flight (behind an MSHR entry, as decode requires) and one marker.
	src.events, src.wakes = fillQueue{}, wakeRing{}
	src.events.init(cfg.NumSMs, cfg.L1.MSHRs)
	src.wakes.init(max(cfg.ALULatency, cfg.L1HitLatency))
	src.SMs[1].MSHR.Allocate(7, src.now, true, 1, 2, cache.Waiter{})
	src.events.push(event{cycle: src.now + 3, sm: 1, line: 7})
	src.wakes.mark(src.now + 1)
	snaptest.Account(t, src, dst, func(g *GPU, k snap.Walk) { g.walk(k, true) }, stateFields)
}

// TestResetReachesEveryField: Reset returns every field of the GPU and
// of the loop structures it owns that is not configuration to what New
// built, whatever it held. What the GPU holds of other packages resets
// through their own Resets, whose tests are theirs.
func TestResetReachesEveryField(t *testing.T) {
	cfg := config.Default().Scale(2)
	g, _ := New(cfg)
	fresh, _ := New(cfg)
	g.kernel = &trace.Kernel{Name: "k"}
	snaptest.CheckReset(t, g, fresh, (*GPU).Reset, stateFields)
}
