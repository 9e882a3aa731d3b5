package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

// These tests pin the tentpole guarantee of the ready-queue engine:
// for every workload and scheme, running with sim.EngineReady produces
// results reflect.DeepEqual-identical to the dense reference scan —
// including the per-scheduler Issue/Stall/Idle counters, which the
// dense engine increments per visited cycle and the ready engine
// settles arithmetically in spans.

// schedTallies snapshots the per-scheduler cycle counters, which are
// not part of KernelResult and therefore need their own comparison.
func schedTallies(g *sim.GPU) [][3]int64 {
	var out [][3]int64
	for _, s := range g.SMs {
		for _, sch := range s.Scheds {
			out = append(out, [3]int64{sch.IssueCycles, sch.StallCycles, sch.IdleCycles})
		}
	}
	return out
}

// runOn executes one workload on a fresh GPU with the given engine and
// returns everything observable: the aggregated result, the final
// per-scheduler counters, and the error (if any).
func runOn(t *testing.T, cfg config.Config, w *sim.Workload, p sim.Policy,
	opts sim.RunOptions, traceTuples bool, e sim.Engine) (sim.WorkloadResult, [][3]int64, error) {
	t.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g.TraceTuples = traceTuples
	opts.Engine = e
	res, runErr := g.RunWorkload(w, p, opts)
	return res, schedTallies(g), runErr
}

// assertEnginesAgree runs w under both engines (a fresh policy instance
// per engine — adaptive schemes carry state) and requires bit-identical
// outcomes. It returns the per-scheduler counters they agreed on.
func assertEnginesAgree(t *testing.T, cfg config.Config, w *sim.Workload,
	mkPolicy func() sim.Policy, opts sim.RunOptions, traceTuples bool) [][3]int64 {
	t.Helper()
	dRes, dTally, dErr := runOn(t, cfg, w, mkPolicy(), opts, traceTuples, sim.EngineDense)
	rRes, rTally, rErr := runOn(t, cfg, w, mkPolicy(), opts, traceTuples, sim.EngineReady)
	if (dErr == nil) != (rErr == nil) || (dErr != nil && dErr.Error() != rErr.Error()) {
		t.Fatalf("engines disagree on error:\n dense: %v\n ready: %v", dErr, rErr)
	}
	if !reflect.DeepEqual(dRes, rRes) {
		t.Fatalf("engine results diverge for %s:\n dense: %+v\n ready: %+v", w.Name, dRes, rRes)
	}
	if !reflect.DeepEqual(dTally, rTally) {
		for i := range dTally {
			if dTally[i] != rTally[i] {
				t.Errorf("scheduler %d counters diverge (issue,stall,idle): dense %v ready %v",
					i, dTally[i], rTally[i])
			}
		}
		t.Fatalf("per-scheduler cycle counters diverge for %s", w.Name)
	}
	return rTally
}

// mustPoise builds the HIE policy from the embedded default weights.
func mustPoise(t *testing.T) sim.Policy {
	t.Helper()
	w, ok := poise.DefaultWeights()
	if !ok {
		t.Skip("no embedded default weights in this build")
	}
	return poise.NewPolicy(testutil.TinyParams(), w)
}

// mustPoiseAs is the HIE on the default weights, changed by edit.
func mustPoiseAs(t *testing.T, edit func(p *poise.Policy)) sim.Policy {
	t.Helper()
	p := mustPoise(t).(*poise.Policy)
	edit(p)
	return p
}

// oracleSource gives every kernel a throttled tuple of its own that no
// feature moves, as a per-kernel oracle table does.
func oracleSource(kernel string, _ poise.Vector, _ int) (n, p int) {
	return 2 + len(kernel)%3, 1 + len(kernel)%2
}

// The windows PCAL-SWL and random-restart run at in these tests, short
// enough that a small kernel sees many decisions; the golden states
// were written at them.
var (
	pcalParams = config.PoiseParams{TWarmup: 100, TFeature: 500, TPeriod: 5000}
	rrParams   = config.PoiseParams{TWarmup: 100, TSearch: 400, TPeriod: 4000, StrideN: 2, StrideP: 4}
)

// engineSchemes is every scheme class in the repo, each built fresh
// per engine run.
func engineSchemes(t *testing.T) []struct {
	name string
	mk   func() sim.Policy
} {
	return []struct {
		name string
		mk   func() sim.Policy
	}{
		{"gto", func() sim.Policy { return sim.GTO{} }},
		{"swl", func() sim.Policy { return sim.Fixed{PolicyName: "SWL", N: 6, P: 6} }},
		{"static", func() sim.Policy { return sim.Fixed{N: 3, P: 1} }},
		{"ccws", func() sim.Policy { return sched.NewCCWS(config.PoiseParams{TFeature: 2000}) }},
		{"apcm", func() sim.Policy { return sched.NewAPCM(config.PoiseParams{TFeature: 3000}) }},
		{"pcal", func() sim.Policy { return sched.NewPCALSWL(sched.TupleSource{}, pcalParams) }},
		{"random", func() sim.Policy { return sched.NewRandomRestart(7, rrParams) }},
		{"poise", func() sim.Policy { return mustPoise(t) }},
		{"poise-oracle", func() sim.Policy {
			return mustPoiseAs(t, func(p *poise.Policy) { p.Source = oracleSource })
		}},
		{"poise-once", func() sim.Policy {
			return mustPoiseAs(t, func(p *poise.Policy) { p.Params.TPeriod, p.Guard = math.MaxInt32, false })
		}},
	}
}

// TestEngineEquivalenceTinyKernels covers the structural corner cases
// on small synthetic kernels: cache thrashing, pure streaming,
// compute-bound, shared-footprint, warm multi-kernel workloads, and a
// policy that thrashes tuples every few cycles (maximum wake-hint
// churn).
func TestEngineEquivalenceTinyKernels(t *testing.T) {
	cfg := testutil.TinyConfig()
	cases := []struct {
		name string
		w    *sim.Workload
		mk   func() sim.Policy
	}{
		{"thrash-gto", testutil.Workload("thrash", testutil.ThrashKernel("t", 64, 40, 4)), func() sim.Policy { return sim.GTO{} }},
		{"stream-gto", testutil.Workload("stream", testutil.StreamKernel("s", 60, 4)), func() sim.Policy { return sim.GTO{} }},
		{"compute-gto", testutil.Workload("compute", testutil.ComputeKernel("c", 40, 4)), func() sim.Policy { return sim.GTO{} }},
		{"shared-gto", testutil.Workload("shared", testutil.SharedKernel("sh", 16, 40, 4)), func() sim.Policy { return sim.GTO{} }},
		{"thrash-min-tuple", testutil.Workload("thrash", testutil.ThrashKernel("t", 64, 40, 4)), func() sim.Policy { return sim.Fixed{N: 1, P: 1} }},
		{"stream-throttled", testutil.Workload("stream", testutil.StreamKernel("s", 60, 4)), func() sim.Policy { return sim.Fixed{N: 2, P: 1} }},
		{"warm-multikernel", testutil.Workload("multi",
			testutil.ThrashKernel("k0", 48, 30, 3),
			testutil.StreamKernel("k1", 40, 4),
			testutil.ComputeKernel("k2", 30, 2)), func() sim.Policy { return sim.GTO{} }},
		{"hostile-tuple-churn", testutil.Workload("thrash", testutil.ThrashKernel("t", 64, 40, 4)), func() sim.Policy { return &hostilePolicy{} }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			assertEnginesAgree(t, cfg, tc.w, tc.mk, sim.RunOptions{}, true)
		})
	}
}

// TestEngineEquivalenceMemoryPressure drives the MSHR-saturated and
// replay-heavy paths: a single-entry MSHR file forces constant parking
// in the replay queues, and the drained-event wakeAllReplayers path.
func TestEngineEquivalenceMemoryPressure(t *testing.T) {
	cfg := testutil.TinyConfig()
	cfg.L1.MSHRs = 1
	w := testutil.Workload("pressure", testutil.ThrashKernel("p", 96, 30, 4))
	assertEnginesAgree(t, cfg, w, func() sim.Policy { return sim.GTO{} }, sim.RunOptions{}, false)

	cfg2 := testutil.TinyConfig()
	cfg2.L1.MSHRs = 2
	w2 := testutil.Workload("pressure2", testutil.StreamKernel("p2", 50, 4))
	assertEnginesAgree(t, cfg2, w2, func() sim.Policy { return sim.Fixed{N: 8, P: 8} }, sim.RunOptions{}, false)
}

// TestEngineEquivalenceLimits pins the early-exit path: the MaxCycles
// safety net must produce the same error after the same amount of
// simulated work.
func TestEngineEquivalenceLimits(t *testing.T) {
	cfg := testutil.TinyConfig()
	w := testutil.Workload("limits", testutil.ThrashKernel("l", 64, 60, 4))
	assertEnginesAgree(t, cfg, w, func() sim.Policy { return sim.GTO{} },
		sim.RunOptions{MaxCycles: 300}, false)
}

// TestEngineEquivalenceTraced replays the committed golden trace — the
// external-workload path whose kernels carry replay patterns and
// per-warp iteration counts — under a static and an adaptive scheme.
func TestEngineEquivalenceTraced(t *testing.T) {
	ws, err := traceio.LoadWorkloads("../traceio/testdata/mini.ptrace.gz")
	if err != nil {
		t.Fatalf("LoadWorkloads: %v", err)
	}
	cfg := testutil.TinyConfig()
	for _, w := range ws {
		w := w
		t.Run(w.Name+"-gto", func(t *testing.T) {
			t.Parallel()
			assertEnginesAgree(t, cfg, w, func() sim.Policy { return sim.GTO{} }, sim.RunOptions{}, false)
		})
		t.Run(w.Name+"-ccws", func(t *testing.T) {
			t.Parallel()
			assertEnginesAgree(t, cfg, w, func() sim.Policy { return sched.NewCCWS(config.PoiseParams{TFeature: 1500}) }, sim.RunOptions{}, false)
		})
	}
}

// prefixIters divides a catalogue kernel's iterations when a suite
// runs it on a prefix.
const prefixIters = 4

// kernelPrefix returns w with every kernel cut to the first
// 1/prefixIters of its iterations: each warp runs the opening of its
// full instruction stream, the same addresses in the same order, and
// stops early. The catalogue suites run on it in a plain `go test`, and
// on the whole kernels under -full (testutil.Full), which CI's no-race
// step passes.
func kernelPrefix(w *sim.Workload) *sim.Workload {
	if testutil.Full() {
		return w
	}
	short := *w
	short.Kernels = make([]*trace.Kernel, len(w.Kernels))
	for i, k := range w.Kernels {
		kp := *k
		kp.Iters = max(1, k.Iters/prefixIters)
		short.Kernels[i] = &kp
	}
	return &short
}

// TestEngineEquivalenceCatalogue proves the headline acceptance
// criterion: every catalogue workload under every scheme class is
// bit-identical between the engines, on a prefix of its kernels unless
// the test binary gets -full. Under the race detector the workload set
// shrinks to one representative per class (training, memory-sensitive
// eval, cache-sensitive eval, compute); the full catalogue runs in the
// normal build and in CI's dedicated step.
func TestEngineEquivalenceCatalogue(t *testing.T) {
	cat := workloads.NewCatalogue(workloads.Small)
	names := []string{"gco", "ii", "bfs", "wc"}
	if !raceEnabled {
		names = nil
		names = append(names, workloads.TrainingNames()...)
		names = append(names, workloads.EvalNames()...)
		names = append(names, workloads.ComputeNames()...)
	}
	cfg := testutil.TinyConfig()
	for _, name := range names {
		w := kernelPrefix(cat.Must(name))
		for _, sc := range engineSchemes(t) {
			w, sc := w, sc
			t.Run(fmt.Sprintf("%s/%s", name, sc.name), func(t *testing.T) {
				t.Parallel()
				traceTuples := sc.name == "poise" || sc.name == "ccws"
				assertEnginesAgree(t, cfg, w, sc.mk, sim.RunOptions{}, traceTuples)
			})
		}
	}
}
