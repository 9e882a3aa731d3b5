package experiments

import (
	"fmt"
	"testing"

	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// BenchmarkFigureSweep measures the wall-clock of the Fig. 7-10/14
// figure-reproduction sweep (profile sweeps + the workload x scheme
// grid) at increasing worker counts:
//
//	go test ./internal/experiments -bench FigureSweep -benchtime 1x
//
// Every iteration builds a fresh harness with no disk cache so the
// profile sweeps are measured, not memoised. The grid is
// embarrassingly parallel — tasks share no state and never block on
// each other — so on a multi-core machine the expected scaling is
// near-linear until workers exceed cores (>= 2x at 4 workers on >= 4
// cores). On a single-core machine the worker counts roughly tie
// (interleaving concurrent simulations costs a few percent in
// scheduling and allocation pressure), which bounds the engine's
// overhead. Results are bit-identical at every worker count — see
// TestPerformanceBitIdenticalAcrossWorkers.
func BenchmarkFigureSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := NewHarness(subsetOptions(workers, 0))
				sum, err := h.Performance()
				if err != nil {
					b.Fatal(err)
				}
				if len(sum.Rows) == 0 {
					b.Fatal("empty summary")
				}
			}
		})
	}
}

// BenchmarkSweepPooledGPU measures one kernel's whole-grid profile sweep
// on the process-wide GPU pool:
//
//	go test ./internal/experiments -bench SweepPooledGPU -benchtime 3x
//
// The sweep uses the default experiment platform (8 SMs with a
// proportionally scaled L2) at the evaluation grid resolution — ~90
// grid points — over a short kernel, the regime large sweep campaigns
// live in (many points, bounded per-point work). B/op is the number to
// watch: the per-SM tag stores, warp slots, MSHR files, L2 banks and
// DRAM servers are built once and reused in place, and a rise by
// roughly grid-size over worker-count means a machine is being built
// per point again.
func BenchmarkSweepPooledGPU(b *testing.B) {
	cfg := config.Default().Scale(8)
	k := testutil.ThrashKernel("poolbench", 32, 4, 16)
	opts := profile.SweepOptions{StepN: 2, StepP: 2, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := profile.Sweep(cfg, k, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(pr.Points) == 0 {
			b.Fatal("empty profile")
		}
	}
}

// BenchmarkDatasetPooledGPU measures the pooled training-feature runs:
//
//	go test ./internal/experiments -bench DatasetPooledGPU -benchtime 3x
//
// The profile store is warmed first, so the measured BuildDataset
// iterations are dominated by the per-kernel feature measurement (two
// kernel runs each), which reuses one memory hierarchy across the whole
// training set: B/op rising by roughly the kernel count means a machine
// per kernel again.
func BenchmarkDatasetPooledGPU(b *testing.B) {
	// Short kernels on the full-size default platform: the regime where
	// building the memory hierarchy per kernel would dominate the
	// feature runs' allocation profile (the same regime
	// BenchmarkSweepPooledGPU measures for sweeps). The admission floor
	// drops to one cycle so every kernel reaches the
	// feature-measurement step.
	cfg := config.Default().Scale(8)
	params := config.DefaultPoise()
	params.MinTrainCycles = 1
	wl := &sim.Workload{Name: "dsbench"}
	for i := 0; i < 12; i++ {
		wl.Kernels = append(wl.Kernels, testutil.ThrashKernel(fmt.Sprintf("dsbench#%d", i), 32, 4, 16))
	}
	train := []*sim.Workload{wl}
	store := profile.Store{Dir: b.TempDir()}
	sweep := profile.SweepOptions{StepN: 12, StepP: 12, Workers: 1}
	if _, err := poise.BuildDataset(cfg, params, train, sweep, store); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := poise.BuildDataset(cfg, params, train, sweep, store)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Samples)+ds.RejectedCycles+ds.RejectedHitRate+ds.RejectedSpeedup == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkPrunedSweep compares the adaptive coarse-to-fine sweep
// against the exhaustive grid on one kernel's profile at the default
// evaluation resolution:
//
//	go test ./internal/experiments -bench PrunedSweep -benchtime 3x
//
// The pruned sweep must simulate well under half of the ~80-point
// grid (the points/op and grid-points/op metrics make the ratio
// explicit) and proportionally less wall-clock and allocation, while
// selecting exactly the same Static-Best / SWL / scored tuples — the
// property TestPrunedMatchesExhaustiveOnCatalogue asserts across the
// whole catalogue.
func BenchmarkPrunedSweep(b *testing.B) {
	// The same platform and kernel scale the catalogue equivalence test
	// verifies tuples on: a structured solution space, so the bench
	// shows genuine pruning rather than a flat-space escalation.
	cfg := config.Default().Scale(2)
	k := shrinkKernel(workloads.NewCatalogue(workloads.Small).Must("ii").Kernels[0], 24, 24)
	opts := profile.SweepOptions{StepN: 2, StepP: 2, Workers: 1}
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr, err := profile.Sweep(cfg, k, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(pr.Points)), "points/op")
		}
	})
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		refined := opts
		refined.Refine = true
		for i := 0; i < b.N; i++ {
			out, err := profile.Store{}.LoadOrSweepAll(cfg, []*trace.Kernel{k}, refined)
			if err != nil {
				b.Fatal(err)
			}
			pr, stats := out[0].Profile, out[0].Stats
			if len(pr.Points) != stats.Simulated {
				b.Fatal("stats disagree with the profile")
			}
			b.ReportMetric(float64(stats.Simulated), "points/op")
			b.ReportMetric(float64(stats.GridPoints), "grid-points/op")
			b.ReportMetric(100*stats.Fraction(), "%grid/op")
		}
	})
}

// BenchmarkTableIIISweep covers the coarser per-workload fan-out shape
// (one task = two whole-workload simulations).
func BenchmarkTableIIISweep(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := NewHarness(subsetOptions(workers, 0))
				rows, err := h.TableIII()
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}
