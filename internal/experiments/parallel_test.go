package experiments

import (
	"reflect"
	"sync"
	"testing"

	"poise/internal/sim"
	"poise/internal/workloads"
)

// subsetOptions is the scaled-down figure sweep the determinism tests
// run: representative memory-sensitive workloads on a 2-SM GPU with a
// coarse profile grid. Small enough for CI, yet it exercises the full
// parallel pipeline: profile sweeps, the workload x scheme grid,
// policy construction per cell and ordered aggregation. Under the
// race detector (~10x slower simulation) the subset shrinks further
// so the package stays inside test timeouts.
func subsetOptions(workers int, seed int64) Options {
	subset := []string{"ii", "bfs"}
	if raceEnabled {
		subset = []string{"bfs"}
	}
	return Options{
		SMs: 2, Size: workloads.Small,
		EvalStepN: 8, EvalStepP: 8, TrainStepN: 8, TrainStepP: 8,
		Workers: workers, Seed: seed,
		EvalSubset: subset,
	}
}

// sequentialHarness is the harness of subsetOptions(1, 0), built once
// per test binary, on first use, so that the tests comparing against
// its sweeps and figures share them: what one test simulated, the next
// reads from the harness's memo. The other side of every comparison is
// a fresh harness.
var sequentialHarness = sync.OnceValue(func() *Harness { return NewHarness(subsetOptions(1, 0)) })

// skipUnderRace skips a simulation-heavy determinism test when the
// race detector is on; the concurrency structure it would exercise is
// already covered by TestPerformanceBitIdenticalAcrossWorkers, which
// always runs.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("simulator is ~10x slower under -race; parallel structure covered by TestPerformanceBitIdenticalAcrossWorkers")
	}
}

// TestPerformanceBitIdenticalAcrossWorkers is the core determinism
// guarantee of the runner engine: the Fig. 7-10/14 sweep must produce
// bit-identical rows whether it runs on one worker or many.
func TestPerformanceBitIdenticalAcrossWorkers(t *testing.T) {
	seq, err := sequentialHarness().Performance()
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewHarness(subsetOptions(4, 0)).Performance()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel Performance diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFig11BitIdenticalAcrossWorkers covers the two-level grid (GTO
// baselines, then strides x workloads) of the sensitivity sweep.
func TestFig11BitIdenticalAcrossWorkers(t *testing.T) {
	skipUnderRace(t)
	seq, err := sequentialHarness().Fig11()
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewHarness(subsetOptions(3, 0)).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel Fig11 diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFig4BitIdenticalAcrossWorkers covers per-workload fan-out with
// per-task GPU construction.
func TestFig4BitIdenticalAcrossWorkers(t *testing.T) {
	skipUnderRace(t)
	seq, err := sequentialHarness().Fig4()
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewHarness(subsetOptions(4, 0)).Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel Fig4 diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestSeedReproducibleAndEffective checks both halves of the -seed
// contract: the same seed reproduces results exactly (even at
// different worker counts), and a different seed actually changes the
// simulated workloads. bfs is used because it has stochastic
// components (irregular address patterns, iteration jitter); fully
// deterministic workloads like ii are invariant under reseeding by
// design.
func TestSeedReproducibleAndEffective(t *testing.T) {
	run := func(workers int, seed int64) WorkloadResultLite {
		h := NewHarness(subsetOptions(workers, seed))
		res, err := sim.RunWorkload(h.Cfg, h.Cat.Must("bfs"), sim.GTO{}, sim.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return WorkloadResultLite{res.Cycles, res.Instructions, res.IPC}
	}
	a := run(1, 42)
	b := run(4, 42)
	if a != b {
		t.Fatalf("same seed must reproduce: %+v != %+v", a, b)
	}
	c := run(1, 43)
	if a == c {
		t.Fatalf("different seeds must perturb the workload: both gave %+v", a)
	}
	canon := run(1, 0)
	again := run(2, 0)
	if canon != again {
		t.Fatalf("canonical seed must be stable: %+v != %+v", canon, again)
	}
}

// WorkloadResultLite keeps the comparison fields value-comparable.
type WorkloadResultLite struct {
	Cycles       int64
	Instructions int64
	IPC          float64
}

// TestWorkloadProfilesParallel checks the shared profile cache under
// the fan-out: every kernel appears exactly once and repeated calls
// hit the memoised entries.
func TestWorkloadProfilesParallel(t *testing.T) {
	skipUnderRace(t)
	h := NewHarness(subsetOptions(4, 0))
	ws := h.EvalWorkloads()
	a, err := h.WorkloadProfiles(ws)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, w := range ws {
		want += len(w.Kernels)
	}
	if len(a) != want {
		t.Fatalf("got %d profiles, want %d", len(a), want)
	}
	b, err := h.WorkloadProfiles(ws)
	if err != nil {
		t.Fatal(err)
	}
	for name := range a {
		if a[name] != b[name] {
			t.Fatalf("profile %s was re-swept instead of memoised", name)
		}
	}
}
