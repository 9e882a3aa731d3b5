package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// prunedOracle drives the adaptive refinement of kernel k round by
// round, answering each round's plan from an already-simulated
// exhaustive profile instead of re-simulating: a kernel run is a pure
// function of (config, kernel, tuple), so the replayed measurements
// are exactly what RunTasks would return, and the refinement's
// decisions — and its simulated-point count — are exactly those of a
// live pruned sweep. This lets the equivalence test cover every
// catalogue workload for the price of one exhaustive sweep each
// instead of two sweeps.
func prunedOracle(t *testing.T, cfg config.Config, k *trace.Kernel, opts profile.SweepOptions, ex *profile.Profile) (*profile.Profile, profile.RefineStats) {
	t.Helper()
	r := profile.NewRefinement(cfg, []*trace.Kernel{k}, opts, profile.Store{})
	for round := 0; ; round++ {
		plan, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Tasks) == 0 {
			break
		}
		ms := make([]gridplan.Measurement, 0, len(plan.Tasks))
		for _, task := range plan.Tasks {
			pt, ok := ex.Lookup(task.N, task.P)
			if !ok {
				t.Fatalf("refining %s: round %d asked for (%d,%d), which the exhaustive sweep never simulated",
					k.Name, round, task.N, task.P)
			}
			m := gridplan.Measurement{Tag: task.Tag, Kernel: k.Name, N: pt.N, P: pt.P,
				IPC: pt.IPC, HitRate: pt.HitRate, AML: pt.AML}
			if pt.N == ex.MaxN && pt.P == ex.MaxN {
				m.Cycles, m.Instructions = ex.BaselineCycles, ex.BaselineInstr
			}
			ms = append(ms, m)
		}
		if err := r.Fold(ms); err != nil {
			t.Fatal(err)
		}
	}
	out, err := r.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return out[0].Profile, out[0].Stats
}

// shrinkKernel clones a catalogue kernel with its per-warp work and
// grid cut down so an exhaustive 80-point sweep of it stays in the
// tens-of-milliseconds range: the access patterns, body and locality
// structure — everything that shapes the {N, p} solution space — are
// untouched, only the iteration and block counts shrink. Full-length
// kernels would cost minutes per exhaustive sweep, which the tier-1
// budget cannot fit for the whole catalogue.
func shrinkKernel(k *trace.Kernel, iters, blocks int) *trace.Kernel {
	c := *k
	c.PerWarpIters = nil
	if c.Iters > iters {
		c.Iters = iters
	}
	if c.Blocks > blocks {
		c.Blocks = blocks
	}
	return &c
}

// TestPrunedMatchesExhaustiveOnCatalogue is the pruning contract: on
// every catalogue workload, the adaptive sweep must select exactly the
// exhaustive sweep's Best, BestDiagonal and BestScore tuples while
// simulating at most 40% of the default evaluation grid across the
// kernels with a structured solution space — the ones the harness
// actually sweeps (the memory-sensitive evaluation and training sets;
// the compute-intensive workloads never get profiled by any
// experiment). Kernels whose space is flat to within noise have a
// noise argmax as their "optimum"; the refiner must escalate those to
// the full grid (tuple equality still asserted, trivially), and the
// test asserts the escalation is justified: every escalated kernel's
// exhaustive peak really is below the flatness threshold, so no
// structured profile ever pays for the fallback. The exhaustive
// profile is simulated once per kernel and the refinement replays
// measurements from it (see prunedOracle); the live RunTasks path is
// pinned separately by TestPrunedSweepLiveMatchesOracle and the
// profile-package tests. Under the race detector the catalogue
// shrinks to one workload per family.
func TestPrunedMatchesExhaustiveOnCatalogue(t *testing.T) {
	cfg := config.Default().Scale(2)
	params := config.DefaultPoise()
	cat := workloads.NewCatalogue(workloads.Small)
	names := cat.Names()
	if raceEnabled {
		names = []string{"ii", "gco", "wc"}
	}
	// Every sampled kernel of names at the default step-2 grid, then
	// ii's kernels at step 4 as well: the coarser grid is a different
	// coarse pass and neighbourhood, and the resolution the fleet and
	// CLI round trips sweep. The 40% bound is the step-2 grid's.
	type input struct {
		name string
		opts profile.SweepOptions
	}
	var inputs []input
	for _, name := range names {
		inputs = append(inputs, input{name, profile.SweepOptions{StepN: 2, StepP: 2}})
	}
	inputs = append(inputs, input{"ii", profile.SweepOptions{StepN: 4, StepP: 4}})
	var totalSim, totalGrid int
	for _, in := range inputs {
		opts := in.opts
		var ws []*sim.Workload
		ws = append(ws, cat.Must(in.name))
		kernels := sim.DistinctKernels(ws)
		if len(kernels) > 4 {
			// Multi-kernel workloads (pvr alone has 40 kernel variants)
			// are sampled: four kernels keep every workload family and
			// pattern mix covered within the tier-1 time budget.
			kernels = kernels[:4]
		}
		for _, full := range kernels {
			k := shrinkKernel(full, 24, 24)
			ex, err := profile.Sweep(cfg, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			pr, stats := prunedOracle(t, cfg, k, opts, ex)
			escalated := stats.Simulated == stats.GridPoints
			switch {
			case escalated:
				// Escalation to the full grid is only legitimate on a
				// near-flat space, where the optimum is a noise argmax
				// that no search strategy could pin down with fewer
				// points. A kernel whose peak clearly beats the
				// baseline must be pruned, never escalated.
				if peak := ex.Best().Speedup; peak >= 1.03 {
					t.Errorf("%s: escalated to the full grid despite a structured space (peak %.3fx)",
						k.Name, peak)
				}
				if stats.Rounds > 3 {
					t.Errorf("%s: flat escalation took %d rounds, want <= 3", k.Name, stats.Rounds)
				}
			case ex.Best().Speedup < 1+0.02: // the refiner's default FlatTol
				// The converse: a space that is flat to within the
				// noise threshold cannot be locally searched — it must
				// have escalated for the tuple equality below to be
				// guaranteed rather than lucky.
				t.Errorf("%s: flat profile (peak %.3fx) must escalate to the full grid, swept %d/%d",
					k.Name, ex.Best().Speedup, stats.Simulated, stats.GridPoints)
			case opts.StepN == 2:
				totalSim += stats.Simulated
				totalGrid += stats.GridPoints
			}
			t.Logf("%-14s step %d: %3d/%3d points (%.0f%%) in %d rounds, peak %.3fx",
				k.Name, opts.StepN, stats.Simulated, stats.GridPoints, 100*stats.Fraction(), stats.Rounds,
				ex.Best().Speedup)

			if g, w := pr.Best(), ex.Best(); g.N != w.N || g.P != w.P {
				t.Errorf("%s: pruned Best (%d,%d) != exhaustive (%d,%d)", k.Name, g.N, g.P, w.N, w.P)
			}
			if g, w := pr.BestDiagonal(), ex.BestDiagonal(); g.N != w.N || g.P != w.P {
				t.Errorf("%s: pruned BestDiagonal (%d,%d) != exhaustive (%d,%d)", k.Name, g.N, g.P, w.N, w.P)
			}
			g, _ := pr.BestScore(params)
			w, _ := ex.BestScore(params)
			if g.N != w.N || g.P != w.P {
				t.Errorf("%s: pruned BestScore (%d,%d) != exhaustive (%d,%d)", k.Name, g.N, g.P, w.N, w.P)
			}
			// Every pruned point is bit-identical to its exhaustive twin.
			for _, pt := range pr.Points {
				if xpt, ok := ex.Lookup(pt.N, pt.P); !ok || xpt != pt {
					t.Fatalf("%s: pruned point %+v differs from exhaustive %+v", k.Name, pt, xpt)
				}
			}
		}
	}
	frac := float64(totalSim) / float64(totalGrid)
	t.Logf("catalogue total over structured profiles: %d/%d points (%.1f%%)", totalSim, totalGrid, 100*frac)
	if frac > 0.40 {
		t.Fatalf("pruned sweeps simulated %.1f%% of the exhaustive grid, want <= 40%%", 100*frac)
	}
}

// exhaustiveHarness is the oracle side of the harness-level suites: a
// harness of subsetOptions(1, 0) whose every sweep covers the whole
// grid, which nothing outside this package's tests can build. It is
// built once per test binary, on first use, like sequentialHarness.
var exhaustiveHarness = sync.OnceValue(func() *Harness {
	h := NewHarness(subsetOptions(1, 0))
	h.exhaustive = true
	return h
})

// TestPrunedPerformanceMatchesExhaustive runs the Fig. 7-10/14 sweep
// on the harness and on its whole-grid oracle: every scheme result
// must be identical, because SWL, PCAL-SWL and Static-Best only consume
// the profile tuples the refinement reproduces exactly. This is the
// harness-level equivalence — refining can never move a figure. (Under
// race the subset shrinks with subsetOptions, per the tier-1 timing
// rules.)
func TestPrunedPerformanceMatchesExhaustive(t *testing.T) {
	exact, err := exhaustiveHarness().Performance()
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := sequentialHarness().Performance()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, pruned) {
		t.Fatalf("refined Performance diverged from exhaustive:\nexhaustive: %+v\nrefined:    %+v", exact, pruned)
	}
}

// TestPrunedFig2MatchesExhaustive pins the full-space consumers: the
// Fig. 2 solution-space dissection renders the whole profile (scatter,
// diagonal and p=1 curves, the PCAL neighbour walk), which a refined
// subset cannot serve — so the harness must sweep that one kernel
// exhaustively (KernelProfileFull; Fig. 17 takes the same path) and
// produce what the whole-grid oracle does.
func TestPrunedFig2MatchesExhaustive(t *testing.T) {
	exact, err := exhaustiveHarness().Fig2()
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := sequentialHarness().Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, pruned) {
		t.Fatalf("Fig2 diverged from exhaustive:\nexhaustive: %+v\nharness:    %+v", exact, pruned)
	}
}

// TestTrainingSweepsTheWholeStep3Grid: the default harness trains on
// the sweep poisetrain makes, the whole step-3 grid, never a refined
// one, at any seed.
func TestTrainingSweepsTheWholeStep3Grid(t *testing.T) {
	for _, seed := range []int64{0, 5} {
		if o := NewHarness(Options{Seed: seed}).sweepOptions(true); o.Refine || o.StepN != 3 || o.StepP != 3 {
			t.Errorf("seed %d: training sweeps at %+v, want the whole step-3 grid poisetrain sweeps", seed, o)
		}
	}
}

// TestPrunedDatasetMatchesExhaustive pins the training pipeline to the
// whole grid: BuildDataset handed refinement options must sweep, cache
// and return exactly what it does without them (same admissions, same
// Eq. 12 targets, same feature vectors, the same profile files and no
// round file), so no caller can train on a refined sweep. The
// refinement moves 2 of the 60 shipped training targets.
func TestPrunedDatasetMatchesExhaustive(t *testing.T) {
	cfg := config.Default().Scale(2)
	params := config.DefaultPoise()
	params.MinTrainCycles = 1
	wl := &sim.Workload{Name: "prunetrain"}
	for i := 0; i < 3; i++ {
		wl.Kernels = append(wl.Kernels, testutil.ThrashKernel(fmt.Sprintf("prunetrain#%d", i), 24+4*i, 12, 8))
	}
	train := []*sim.Workload{wl}
	opts := profile.SweepOptions{StepN: 2, StepP: 2}
	exactDir, askedDir := t.TempDir(), t.TempDir()
	exact, err := poise.BuildDataset(cfg, params, train, opts, profile.Store{Dir: exactDir})
	if err != nil {
		t.Fatal(err)
	}
	opts.Refine = true
	asked, err := poise.BuildDataset(cfg, params, train, opts, profile.Store{Dir: askedDir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, asked) {
		t.Fatalf("a dataset asked to refine diverged from the whole-grid one:\nwhole grid: %+v\nasked:      %+v", exact, asked)
	}
	for _, k := range wl.Kernels {
		name := profile.Key(cfg, k, profile.SweepOptions{StepN: 2, StepP: 2}) + ".json"
		want, err := os.ReadFile(filepath.Join(exactDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(filepath.Join(askedDir, name)); !bytes.Equal(got, want) {
			t.Errorf("%s differs between the two stores", name)
		}
	}
	if rounds, _ := filepath.Glob(filepath.Join(askedDir, "*.prune*")); len(rounds) > 0 {
		t.Errorf("a training sweep refined: %v", rounds)
	}
}

// TestPrunedSweepLiveMatchesOracle pins the live execution path: a
// real pruned sweep (RunTasks on pooled GPUs) of one representative
// kernel must reproduce the oracle-replayed refinement bit for bit —
// same points, same stats — and match the exhaustive tuples.
func TestPrunedSweepLiveMatchesOracle(t *testing.T) {
	cfg := config.Default().Scale(2)
	cat := workloads.NewCatalogue(workloads.Small)
	k := cat.Must("ii").Kernels[0]
	opts := profile.SweepOptions{StepN: 4, StepP: 4}
	if raceEnabled {
		// ~10x slower simulation: a coarser target grid exercises the
		// same live path at a fraction of the points.
		opts = profile.SweepOptions{StepN: 8, StepP: 8}
	}
	ex, err := profile.Sweep(cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := prunedOracle(t, cfg, k, opts, ex)
	refined := opts
	refined.Refine = true
	out, err := profile.Store{}.LoadOrSweepAll(cfg, []*trace.Kernel{k}, refined)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats := out[0].Profile, out[0].Stats
	if gotStats != wantStats {
		t.Fatalf("live stats %+v != oracle stats %+v", gotStats, wantStats)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("live pruned points differ from oracle replay:\nlive:   %+v\noracle: %+v", got.Points, want.Points)
	}
	if g, w := got.Best(), ex.Best(); g != w {
		t.Fatalf("live pruned Best %+v != exhaustive %+v", g, w)
	}
}
