package sim_test

import (
	"fmt"
	"testing"

	"poise/internal/config"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// config.Default() has 64 schedulers — exactly one word of the ready
// queue's key sets — and every other suite runs on a slice of it, so
// these are the tests that reach the second word: a scan and a wake
// that cross the boundary, the calendar's slot*words+word index.

// wideConfig is the default machine with numSMs SMs of perSM schedulers,
// the warps of an SM divided among them.
func wideConfig(numSMs, perSM int) config.Config {
	cfg := config.Default()
	cfg.NumSMs = numSMs
	cfg.SchedulersPerSM = perSM
	cfg.WarpsPerSched = 48 / perSM
	return cfg
}

var wideShapes = [][2]int{{40, 2}, {20, 4}, {33, 2}} // 80, 80 and 66 schedulers

// TestWideMachineEnginesAgree: dense and ready agree (KernelResult,
// per-scheduler tallies, tuple log) on machines of more than 64
// schedulers, on two memory-bound and two compute applications.
func TestWideMachineEnginesAgree(t *testing.T) {
	cat := workloads.NewCatalogue(workloads.Small)
	schemes := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"gto", func() sim.Policy { return sim.GTO{} }},
		{"random", func() sim.Policy { return sched.NewRandomRestart(7, rrParams) }},
		{"poise", func() sim.Policy { return mustPoise(t) }},
	}
	shapes := wideShapes
	if raceEnabled {
		shapes = shapes[2:]
	}
	for _, shape := range shapes {
		cfg := wideConfig(shape[0], shape[1])
		for _, name := range []string{"syr2k", "bfs", "wc", "hybridsort"} {
			w := cat.Must(name)
			for _, sc := range schemes {
				t.Run(fmt.Sprintf("%dx%d/%s/%s", shape[0], shape[1], name, sc.name), func(t *testing.T) {
					t.Parallel()
					tally := assertEnginesAgree(t, cfg, w, sc.mk, sim.RunOptions{}, true)
					if last := tally[len(tally)-1]; last[0] == 0 {
						t.Fatalf("the last of %d schedulers never issued: the second word saw no work", len(tally))
					}
				})
			}
		}
	}
}

// TestBurstCalendarBooksBalance looks at the calendar from inside the
// visits of a busy kernel on the wide machines, under a policy whose
// steps settle bursts at every offset: at each load, bursting counts
// exactly the schedulers with burstEnd ahead of now, each filed under
// that cycle and off the hot set (GPU.CheckBurstBooks).
func TestBurstCalendarBooksBalance(t *testing.T) {
	for _, shape := range wideShapes {
		cfg := wideConfig(shape[0], shape[1])
		k := busyKernel()
		k.Blocks = 3 * shape[0]
		var live *sim.GPU
		seen, together := 0, 0
		k.Patterns = []trace.Pattern{burstProbe{k.Patterns[0], t, &live, &seen, &together}}
		for name, p := range map[string]sim.Policy{"gto": sim.GTO{}, "churn": newChurn(15)} {
			g, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			live = g
			if _, err := g.Run(k, p, sim.RunOptions{}); err != nil {
				t.Fatalf("%dx%d under %s: %v", shape[0], shape[1], name, err)
			}
		}
		if seen == 0 || together < 2 {
			t.Fatalf("%dx%d: %d bursts seen in flight, at most %d ending together: the calendar was never busy",
				shape[0], shape[1], seen, together)
		}
	}
}
