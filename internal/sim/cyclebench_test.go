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

// benchEngines times one kernel on both cycle engines so the ready
// engine's speedup (and the compute-bound non-regression) is read
// straight off `go test -bench CycleLoop`. The GPU is built once per
// sub-benchmark and pooled with Reset, isolating the cycle loop from
// construction cost.
func benchEngines(b *testing.B, cfg config.Config, k *trace.Kernel) {
	for _, eng := range []struct {
		name   string
		engine sim.Engine
	}{{"ready", sim.EngineReady}, {"dense", sim.EngineDense}} {
		b.Run(eng.name, func(b *testing.B) {
			g, err := sim.New(cfg)
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			opts := sim.RunOptions{Engine: eng.engine}
			warm, err := g.Run(k, sim.GTO{}, opts)
			if err != nil {
				b.Fatalf("Run: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset()
				if _, err := g.Run(k, sim.GTO{}, opts); err != nil {
					b.Fatalf("Run: %v", err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(warm.Cycles),
				"ns/simcycle")
		})
	}
}

// BenchmarkCycleLoopMemBound is the regime the ready queue targets: a
// low-occupancy streaming kernel (one block per SM) at the paper-scale
// 32-SM configuration keeps nearly every scheduler blocked on memory,
// so the dense engine burns its time scanning blocked schedulers while
// the ready engine settles them with span arithmetic.
func BenchmarkCycleLoopMemBound(b *testing.B) {
	benchEngines(b, config.Default(), testutil.StreamKernel("mem", 200, 32))
}

// BenchmarkCycleLoopCompute is the regime issue bursts target: every
// scheduler issues nearly every cycle, so the hot set is always full
// and the queue saves nothing; what the ready engine saves is the
// 64-instruction ALU run, applied in one step. The dense engine never
// bursts, so a dense/ready ratio back near 1 means bursts stopped firing.
func BenchmarkCycleLoopCompute(b *testing.B) {
	benchEngines(b, config.Default(), testutil.ComputeKernel("comp", 60, 128))
}
