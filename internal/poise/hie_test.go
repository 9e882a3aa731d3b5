package poise

import (
	"math"
	"reflect"
	"testing"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// defaultScaled4 is the 4-SM platform with experiment-like contention.
func defaultScaled4() config.Config { return config.Default().Scale(4) }

// throttleWeights predicts a constant (4, 2) for any feature vector —
// enough to verify the HIE plumbing without a trained model.
func throttleWeights(n, p float64) Weights {
	var w Weights
	w.Alpha[NumFeatures-1] = math.Log(n)
	w.Beta[NumFeatures-1] = math.Log(p)
	return w
}

func TestHIERunsAndDecides(t *testing.T) {
	k := testutil.ThrashKernel("hie", 20, 300, 8)
	pol := NewPolicy(testutil.TinyParams(), throttleWeights(4, 2))
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.TraceTuples = true
	res, err := g.Run(k, pol, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	preds := 0
	for _, ev := range res.TupleLog {
		if ev.Predicted {
			preds++
		}
	}
	if preds == 0 {
		t.Fatal("HIE never produced a prediction")
	}
	if _, _, _, ok := pol.Displacement(); !ok {
		t.Fatal("displacement statistics missing after a run")
	}
}

func TestHIEPureInference(t *testing.T) {
	k := testutil.ThrashKernel("hie-nols", 20, 200, 8)
	params := testutil.TinyParams()
	params.StrideN, params.StrideP = 0, 0
	pol := NewPolicy(params, throttleWeights(4, 2))
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.TraceTuples = true
	res, err := g.Run(k, pol, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Without search, the displacement between prediction and final
	// tuple must be zero.
	dN, dP, dE, ok := pol.Displacement()
	if !ok {
		t.Fatal("no decisions recorded")
	}
	if dN != 0 || dP != 0 || dE != 0 {
		t.Fatalf("pure inference must have zero displacement: %v %v %v", dN, dP, dE)
	}
	// And the converged tuples must equal the constant prediction
	// (reverse-scaled to the tiny config's warp bound).
	sawRun := false
	for _, ev := range res.TupleLog {
		if ev.Predicted {
			sawRun = true
			wantN, wantP := throttleWeights(4, 2).PredictTuple(Vector{0, 0, 0, 0, 0, 0, 0, 1}, testutil.TinyConfig().WarpsPerSched)
			if ev.N != wantN || ev.P != wantP {
				t.Fatalf("prediction (%d,%d), want (%d,%d)", ev.N, ev.P, wantN, wantP)
			}
		}
	}
	if !sawRun {
		t.Fatal("no predictions logged")
	}
}

// TestSourceAndOnceAKernel: the engine starts each epoch from its
// Source's tuple, clamped to p <= N <= maxN, and an epoch longer than
// the kernel predicts once per SM.
func TestSourceAndOnceAKernel(t *testing.T) {
	k := testutil.ThrashKernel("hie-source", 20, 200, 8)
	maxN := testutil.TinyConfig().WarpsPerSched
	predictions := func(edit func(p *Policy)) (tuples map[[2]int]bool, n int) {
		params := testutil.TinyParams()
		params.StrideN, params.StrideP = 0, 0
		pol := NewPolicy(params, throttleWeights(4, 2))
		edit(pol)
		g, err := sim.New(testutil.TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		g.TraceTuples = true
		res, err := g.Run(k, pol, sim.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tuples = map[[2]int]bool{}
		for _, ev := range res.TupleLog {
			if ev.Predicted {
				tuples[[2]int{ev.N, ev.P}] = true
				n++
			}
		}
		return tuples, n
	}
	glmN, glmP := throttleWeights(4, 2).PredictTuple(Vector{NumFeatures - 1: 1}, maxN)
	for _, tc := range []struct {
		name  string
		give  [2]int // what the Source gives for this kernel
		tuple [2]int
	}{
		{"in range", [2]int{2, 1}, [2]int{2, 1}},
		{"p over N", [2]int{1, 3}, [2]int{1, 1}},
		{"N over maxN", [2]int{maxN + 5, maxN + 5}, [2]int{maxN, maxN}},
	} {
		got, _ := predictions(func(p *Policy) {
			p.Source = func(kernel string, _ Vector, _ int) (int, int) {
				if kernel != k.Name {
					t.Errorf("Source asked for kernel %q, want %q", kernel, k.Name)
				}
				return tc.give[0], tc.give[1]
			}
		})
		if want := map[[2]int]bool{tc.tuple: true}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: predicted %v, want only %v", tc.name, got, tc.tuple)
		}
	}
	if got, _ := predictions(func(*Policy) {}); !reflect.DeepEqual(got, map[[2]int]bool{{glmN, glmP}: true}) {
		t.Errorf("NewPolicy predicted %v, want only the GLM's %v", got, [2]int{glmN, glmP})
	}
	_, every := predictions(func(*Policy) {})
	_, once := predictions(func(p *Policy) { p.Params.TPeriod = math.MaxInt32 })
	if sms := testutil.TinyConfig().NumSMs; once != sms || every <= once {
		t.Fatalf("%d predictions with one epoch a kernel, %d every epoch, on %d SMs", once, every, sms)
	}
}

func TestHIEComputeIntensiveCutoff(t *testing.T) {
	// A kernel with In above Imax must run at maximum warps: the HIE
	// detects it during the base sample and skips prediction entirely.
	k := testutil.ComputeKernel("hie-compute", 60, 8)
	params := testutil.TinyParams()
	pol := NewPolicy(params, throttleWeights(2, 1)) // would throttle hard if consulted
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.TraceTuples = true
	res, err := g.Run(k, pol, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.TupleLog {
		if ev.Predicted {
			t.Fatal("compute-intensive kernel must not reach prediction")
		}
	}
	// Performance must stay close to GTO (paper Fig. 16: ~1.6% mean
	// overhead; allow a small tolerance on the tiny config).
	gto := testutil.RunTiny(k, sim.GTO{})
	if res.IPC < gto.IPC*0.93 {
		t.Fatalf("cut-off failed to protect a compute kernel: %.3f vs GTO %.3f",
			res.IPC, gto.IPC)
	}
}

func TestHIEBeatsGTOOnThrashKernel(t *testing.T) {
	// End-to-end: with a reasonable prediction anywhere near the
	// optimum, prediction + local search must beat the GTO baseline on
	// a strongly thrash-limited kernel. The 4-SM configuration keeps
	// the experiment platform's SM-to-memory contention ratios (the
	// 2-SM tiny config has a nearly flat {N, p} landscape).
	cfg := defaultScaled4()
	k := testutil.ThrashKernel("hie-win", 20, 300, 16)
	run := func(p sim.Policy) float64 {
		g, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(k, p, sim.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	gto := run(sim.GTO{})
	// Windows scaled 5x (not the tests' usual 20x): probe warmups must
	// still be long enough to re-warm a full-size L1 between tuples.
	pol := NewPolicy(config.DefaultPoise().ScaleTiming(5), throttleWeights(6, 3))
	got := run(pol)
	if got <= gto*1.1 {
		t.Fatalf("Poise %.3f did not clearly beat GTO %.3f on a thrash kernel", got, gto)
	}
}

func TestTrainOnSyntheticDataset(t *testing.T) {
	// Train on a synthetic dataset with a known monotone structure:
	// kernels with a larger intra-warp gain (x5) want smaller N. The
	// fitted model must reproduce the ordering on fresh inputs.
	ds := &Dataset{}
	mk := func(gain float64, targetN, targetP float64) Sample {
		x := Vector{0.3, 0.5, 0.1, 0.1 + gain, gain * gain, 2 * gain * gain, 0.5, 1}
		return Sample{X: x, TargetN: targetN, TargetP: targetP, MaxN: 24}
	}
	for i := 0; i < 12; i++ {
		g := float64(i) / 12 // gain in [0,1)
		// Strong gain -> aggressive throttle target.
		n := 20 - 14*g
		p := 12 - 9*g
		ds.Samples = append(ds.Samples, mk(g, n, p))
	}
	w, err := Train(ds, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	low := mk(0.1, 0, 0)
	high := mk(0.9, 0, 0)
	nLow, _ := w.PredictTuple(low.X, 24)
	nHigh, _ := w.PredictTuple(high.X, 24)
	if nHigh >= nLow {
		t.Fatalf("model must throttle more at higher gain: N(low)=%d N(high)=%d", nLow, nHigh)
	}
}

func TestTrainAblationZeroesWeight(t *testing.T) {
	ds := &Dataset{}
	for i := 0; i < 10; i++ {
		x := Vector{0.1 * float64(i), 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1}
		ds.Samples = append(ds.Samples, Sample{X: x, TargetN: float64(4 + i), TargetP: 3, MaxN: 24})
	}
	w, err := Train(ds, TrainOptions{DropX: 5})
	if err != nil {
		t.Fatal(err)
	}
	if w.Alpha[4] != 0 || w.Beta[4] != 0 {
		t.Fatal("dropped feature x5 must have zero weight")
	}
	if w.Dropped != 4 {
		t.Fatalf("Dropped = %d, want x5's index 4", w.Dropped)
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(&Dataset{}, TrainOptions{}); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestMeasureFeaturesOnTinyKernel(t *testing.T) {
	k := testutil.ThrashKernel("feat", 20, 40, 4)
	x, err := MeasureFeatures(testutil.TinyConfig(), k, profile.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// h' (throttled) must exceed ho (thrashed baseline) on this kernel.
	if x[1] <= x[0] {
		t.Fatalf("expected h' > ho on a thrash kernel: %v", x)
	}
	if x[7] != 1 {
		t.Fatal("intercept missing")
	}
}

// TestBuildDatasetAnswersFeaturesFromTheSweep: the feature runs are
// corners of the training sweep, so a fresh memo simulates exactly the
// whole-grid points and answers both feature runs of every kernel
// occurrence that reaches feature measurement (one the cycle floor
// rejects asks for none), with the vectors unmemoised runs measure.
// Samples keep the workloads' kernel order and multiplicity.
func TestBuildDatasetAnswersFeaturesFromTheSweep(t *testing.T) {
	cfg := testutil.TinyConfig()
	k0, k1 := testutil.ThrashKernel("reuse#0", 20, 12, 4), testutil.ThrashKernel("reuse#1", 32, 8, 3)
	short := testutil.ThrashKernel("reuse#short", 8, 1, 1)
	train := []*sim.Workload{testutil.Workload("reuse-a", k0, short), testutil.Workload("reuse-b", k1, k0)}
	maxN := sim.KernelMaxN(cfg, short)
	floor, err := profile.RunTask(cfg, short, gridplan.Task{N: maxN, P: maxN}, profile.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	params := config.DefaultPoise()
	params.MinTrainCycles = floor.Cycles + 1

	memo := sim.NewRunMemo()
	ds, err := BuildDataset(cfg, params, train, profile.SweepOptions{StepN: 3, StepP: 3, Memo: memo}, profile.Store{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range ds.Samples {
		names = append(names, s.Kernel)
	}
	if want := []string{"reuse#0", "reuse#1", "reuse#0"}; !reflect.DeepEqual(names, want) || ds.RejectedCycles != 1 {
		t.Fatalf("samples %v with %d rejected on cycles, want %v and 1", names, ds.RejectedCycles, want)
	}
	points := 0
	for _, k := range sim.DistinctKernels(train) {
		points += len(gridplan.Enumerate(sim.KernelMaxN(cfg, k), 3, 3))
	}
	if simulated, reused := memo.Simulated.Load(), memo.Reused.Load(); simulated != int64(points) || reused != int64(2*len(ds.Samples)) {
		t.Fatalf("the memo simulated %d runs and answered %d, want the %d grid points and %d feature runs",
			simulated, reused, points, 2*len(ds.Samples))
	}
	for _, s := range ds.Samples {
		k := map[string]*trace.Kernel{"reuse#0": k0, "reuse#1": k1}[s.Kernel]
		if x, err := MeasureFeatures(cfg, k, profile.SweepOptions{}); err != nil || x != s.X {
			t.Fatalf("%s: features %v from the memo, %v (%v) from fresh runs", s.Kernel, s.X, x, err)
		}
	}
}

// TestWarmBuildDatasetIndependentOfWorkers: with every profile in the
// store the run memo starts empty, so every feature run simulates; the
// runs fan out over Workers, and the dataset is the cold one at one
// worker and at two, in kernel order with a recurring kernel and a
// rejection among them.
func TestWarmBuildDatasetIndependentOfWorkers(t *testing.T) {
	cfg := testutil.TinyConfig()
	k0 := testutil.ThrashKernel("warm#0", 8, 40, 4)
	short := testutil.ThrashKernel("warm#short", 8, 1, 1)
	train := []*sim.Workload{
		testutil.Workload("warm-a", k0, testutil.ThrashKernel("warm#1", 16, 20, 4), short),
		testutil.Workload("warm-b", testutil.ThrashKernel("warm#2", 20, 12, 4), k0),
	}
	maxN := sim.KernelMaxN(cfg, short)
	floor, err := profile.RunTask(cfg, short, gridplan.Task{N: maxN, P: maxN}, profile.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	params := config.DefaultPoise()
	params.MinTrainCycles = floor.Cycles + 1
	store := profile.Store{Dir: t.TempDir()}
	opts := profile.SweepOptions{StepN: 4, StepP: 4}
	cold, err := BuildDataset(cfg, params, train, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Samples) != 4 || cold.RejectedCycles != 1 {
		t.Fatalf("cold dataset: %d samples, %d rejected on cycles; want 4 and 1", len(cold.Samples), cold.RejectedCycles)
	}
	for _, workers := range []int{1, 2} {
		opts.Workers, opts.Memo = workers, sim.NewRunMemo()
		warm, err := BuildDataset(cfg, params, train, opts, store)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("workers %d: the warm dataset differs from the cold one", workers)
		}
		// Three distinct admitted kernels, two feature runs each: the
		// recurring one is simulated once, nothing else is.
		if n := opts.Memo.Simulated.Load(); n != 6 {
			t.Errorf("workers %d: the warm build simulated %d runs, want the 6 feature runs", workers, n)
		}
	}
}

func TestDefaultWeightsEmbedded(t *testing.T) {
	w, ok := DefaultWeights()
	if !ok {
		t.Skip("no embedded weights in this build")
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("embedded weights invalid: %v", err)
	}
	if w.TrainKernels < 10 {
		t.Fatalf("embedded model trained on only %d kernels", w.TrainKernels)
	}
}
