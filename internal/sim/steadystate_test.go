package sim_test

import (
	"testing"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// TestSteadyStateZeroAllocPerCycle pins the "no allocation per simulated
// cycle" property of a warmed (pooled) GPU. It compares per-run
// allocations between two kernels that differ only in iteration count:
// everything that legitimately allocates (launch bookkeeping, per-kernel
// PC maps, the result struct) is identical between them, so any excess
// on the long kernel is allocation that scales with simulated cycles —
// exactly what the preallocated fill rings, ready queue, MSHR free list
// and replay-queue storage exist to eliminate. The long kernel warms
// every capacity first, which would hide storage that grows with run
// length and never shrinks, so the fill rings' capacity is checked
// directly as well. The second pair runs under MSHR pressure: fills
// always in flight, replayers always parked.
func TestSteadyStateZeroAllocPerCycle(t *testing.T) {
	pressed := testutil.TinyConfig()
	pressed.L1.MSHRs = 4
	for _, tc := range []struct {
		name        string
		cfg         config.Config
		short, long *trace.Kernel
	}{
		{"stream", testutil.TinyConfig(),
			testutil.StreamKernel("alloc-short", 40, 4), testutil.StreamKernel("alloc-long", 160, 4)},
		{"thrash-4-mshrs", pressed,
			testutil.ThrashKernel("alloc-short", 64, 20, 4), testutil.ThrashKernel("alloc-long", 64, 80, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := sim.New(tc.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			run := func(k *trace.Kernel) {
				g.Reset()
				if _, err := g.Run(k, sim.GTO{}, sim.RunOptions{}); err != nil {
					t.Fatalf("Run(%s): %v", k.Name, err)
				}
			}
			// Warm every pooled capacity on the longer kernel first.
			run(tc.long)
			if got, want := g.FillCapacity(), tc.cfg.NumSMs*tc.cfg.L1.MSHRs; got != want {
				t.Fatalf("fill storage holds %d slots after the long run, want NumSMs x MSHRs = %d", got, want)
			}

			aShort := testing.AllocsPerRun(10, func() { run(tc.short) })
			aLong := testing.AllocsPerRun(10, func() { run(tc.long) })
			if aLong > aShort {
				t.Fatalf("allocations grow with simulated cycles: %.1f allocs/run on the short kernel vs %.1f on the long one",
					aShort, aLong)
			}
		})
	}
}
