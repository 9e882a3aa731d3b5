package sim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// TestPoolResetBitIdentical is the GPU pool's load-bearing invariant:
// after any sequence of runs — including policies that mutate GPU-side
// state beyond plain execution (CCWS attaches victim tag arrays to the
// L1, APCM installs bypass tables) and tuple tracing — Reset must
// leave the GPU reflect.DeepEqual-identical to a freshly constructed
// one. DeepEqual inspects unexported fields through the whole object
// graph (caches, MSHR files, schedulers, warp slots, fill rings), so
// this is a bit-level fresh-state check, not a behavioural smoke test.
func TestPoolResetBitIdentical(t *testing.T) {
	cfg := testutil.TinyConfig()
	fresh, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	used, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, used) {
		t.Fatal("two fresh GPUs must start identical (test precondition)")
	}

	k := testutil.ThrashKernel("poolreset", 24, 20, 4)
	used.TraceTuples = true
	for _, pol := range []sim.Policy{
		sim.GTO{},
		sched.NewCCWS(config.PoiseParams{TFeature: 200}),
		sched.NewAPCM(config.PoiseParams{TFeature: 200}),
		sim.Fixed{N: 3, P: 1},
	} {
		if _, err := used.Run(k, pol, sim.RunOptions{}); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
	if reflect.DeepEqual(fresh, used) {
		t.Fatal("running kernels must dirty the GPU (test precondition)")
	}

	used.Reset()
	if !reflect.DeepEqual(fresh, used) {
		t.Fatal("Reset GPU differs from fresh construction")
	}

	// And the reset GPU must simulate identically to a fresh one.
	resFresh, err := fresh.Run(k, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resReset, err := used.Run(k, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resFresh, resReset) {
		t.Fatalf("reset GPU diverged from fresh GPU:\nfresh %+v\nreset %+v", resFresh, resReset)
	}
}

// TestPoolRecycles checks the pool mechanics: Get prefers parked GPUs,
// Put resets before parking, and sequential Get/Put reuses one GPU.
func TestPoolRecycles(t *testing.T) {
	cfg := testutil.TinyConfig()
	pool := sim.FreshPool()
	k := testutil.ThrashKernel("poolrun", 16, 10, 2)

	var first *sim.GPU
	for i := 0; i < 5; i++ {
		g, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = g
		} else if g != first {
			t.Fatal("sequential Get/Put must reuse the same GPU")
		}
		if _, err := g.Run(k, sim.GTO{}, sim.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		pool.Put(g)
	}
	builds, reuses := pool.Stats()
	if builds != 1 || reuses != 4 {
		t.Fatalf("builds=%d reuses=%d, want 1 build and 4 reuses", builds, reuses)
	}
	if pool.Idle(cfg) != 1 {
		t.Fatalf("idle=%d, want 1", pool.Idle(cfg))
	}
	pool.Put(nil)
	if pool.Idle(cfg) != 1 {
		t.Error("Put(nil) parked something")
	}
}

// TestPoolRejectsBadConfig: an invalid configuration fails Acquire
// before a GPU is built, and gets no free list.
func TestPoolRejectsBadConfig(t *testing.T) {
	cfg := testutil.TinyConfig()
	cfg.NumSMs = 0
	if _, err := sim.Acquire(cfg); err == nil {
		t.Fatal("invalid config must fail Acquire")
	}
	pool := sim.FreshPool()
	if _, err := pool.Get(cfg); err == nil {
		t.Fatal("invalid config must fail a pool's Get")
	}
	if builds, _ := pool.Stats(); builds != 0 || pool.Configs() != 0 {
		t.Fatalf("an invalid config left %d builds and %d free lists", builds, pool.Configs())
	}
}

// TestPoolResetAfterWorkloadRun extends the reset invariant to
// multi-kernel workload runs, whose Warm option carries L2 contents
// across kernels: after RunWorkload, Reset must still restore
// fresh-construction state, and a reset GPU must replay the workload
// identically — the property that lets experiment-grid cells recycle
// GPUs through a pool.
func TestPoolResetAfterWorkloadRun(t *testing.T) {
	cfg := testutil.TinyConfig()
	fresh, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	used, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.Workload{Name: "poolwl", Kernels: []*trace.Kernel{
		testutil.ThrashKernel("poolwl#0", 24, 12, 3),
		testutil.ThrashKernel("poolwl#1", 16, 10, 2),
	}}
	want, err := used.RunWorkload(w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	used.Reset()
	if !reflect.DeepEqual(fresh, used) {
		t.Fatal("Reset after a warm multi-kernel workload run differs from fresh construction")
	}
	got, err := used.RunWorkload(w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("reset GPU replayed the workload differently")
	}
}

// TestPoolSetPerConfig: the pool keeps one free list per distinct
// configuration, recycling within a configuration and never across.
func TestPoolSetPerConfig(t *testing.T) {
	cfgA := testutil.TinyConfig()
	cfgB := testutil.TinyConfig()
	cfgB.L1.SizeBytes *= 2
	pool := sim.FreshPool()

	a1, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := pool.Get(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cfg != cfgA || b1.Cfg != cfgB {
		t.Fatal("the pool handed out GPUs with the wrong configuration")
	}
	pool.Put(a1)
	pool.Put(b1)
	if pool.Idle(cfgA) != 1 || pool.Idle(cfgB) != 1 || pool.Configs() != 2 {
		t.Fatalf("idle %d and %d over %d configurations, want 1 and 1 over 2", pool.Idle(cfgA), pool.Idle(cfgB), pool.Configs())
	}
	a2, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Fatal("the pool must recycle within a configuration")
	}
	b2, err := pool.Get(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b1 {
		t.Fatal("the pool must recycle the other configuration's GPU too")
	}
	builds, reuses := pool.Stats()
	if builds != 2 || reuses != 2 {
		t.Fatalf("builds=%d reuses=%d, want 2 and 2", builds, reuses)
	}
}

// TestHarnessesSweepOnTheProcessPool: nobody hands a pool to anybody.
// Two harnesses of one configuration, one after the other in one
// process, each refining a kernel over several rounds (several RunTasks
// calls, the shape of a fleet worker's leases too) with one worker:
// every swept point draws from the process-wide set, and between them
// the two harnesses build no more GPUs than they have workers in flight.
func TestHarnessesSweepOnTheProcessPool(t *testing.T) {
	opt := experiments.Options{
		SMs: 3, EvalSubset: []string{"bfs"}, EvalStepN: 12, EvalStepP: 12, Workers: 1,
	}
	builds0, reuses0 := sim.Drivers().Stats()
	points, rounds := 0, 0
	for i := 0; i < 2; i++ {
		h := experiments.NewHarness(opt)
		if _, err := h.WorkloadProfiles(h.EvalWorkloads()); err != nil {
			t.Fatal(err)
		}
		st, _ := h.SweepBooks()
		points, rounds = points+st.Simulated, rounds+st.Rounds
	}
	builds, reuses := sim.Drivers().Stats()
	builds, reuses = builds-builds0, reuses-reuses0
	if rounds < 4 || builds > 1 || builds+reuses != int64(points) {
		t.Fatalf("two harnesses swept %d points in %d rounds on %d GPUs built and %d reused, want at most 1 built",
			points, rounds, builds, reuses)
	}
}

// newGPUAllowed lists the non-test files outside internal/sim that may
// call sim.New, each with its reason.
var newGPUAllowed = map[string]string{
	"bench/probes.go": "the benchmark harness times construction itself (sim.new_ms)",
}

// TestOnlyThePoolBuildsGPUs holds pool.go's rule: outside internal/sim,
// no non-test Go file constructs a GPU (a reference to sim.New, called
// or not); everything takes one from sim.Acquire.
func TestOnlyThePoolBuildsGPUs(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "internal/sim" || d.Name() == "testdata" || rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || newGPUAllowed[rel] != "" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"poise/internal/sim"` {
				name = "sim"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
					t.Errorf("%s builds a GPU with sim.New; take one from sim.Acquire", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
