package sim_test

import (
	"testing"
	"testing/quick"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// Property: for any valid tuple, a run completes with the exact
// instruction count and internally consistent counters — issue
// accounting, cache accounting and memory-side accounting must all
// agree regardless of how aggressively the kernel is throttled.
func TestRunInvariantsAcrossTuples(t *testing.T) {
	k := testutil.ThrashKernel("inv", 24, 25, 4)
	want := int64(k.TotalWarps()) * int64(k.Iters) * int64(len(k.Body))
	wantLoads := int64(k.TotalWarps()) * int64(k.Iters) * int64(k.LoadsPerIter())
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)%24 + 1
		p := int(pRaw)%n + 1
		g, err := sim.New(testutil.TinyConfig())
		if err != nil {
			return false
		}
		res, err := g.Run(k, sim.Fixed{N: n, P: p}, sim.RunOptions{})
		if err != nil {
			return false
		}
		if res.Instructions != want || res.Loads != wantLoads {
			return false
		}
		// Cache accounting: hits + misses = accesses; class splits sum.
		misses := res.L1.Accesses - res.L1.Hits
		if misses < 0 {
			return false
		}
		if res.L1.IntraWarpHits+res.L1.InterWarpHits != res.L1.Hits {
			return false
		}
		if res.L1.PolluteAccesses+res.L1.NoPollAccesses != res.L1.Accesses {
			return false
		}
		if res.L1.PolluteHits+res.L1.NoPollHits != res.L1.Hits {
			return false
		}
		// Memory side: every L2 access was an L1 miss event (primary
		// misses only, so bounded above by misses; stores add traffic on
		// kernels that have them — this one has none).
		if res.L2Accesses > misses {
			return false
		}
		// DRAM accesses are bounded by L2 misses.
		if res.DRAMAcc > res.L2Accesses {
			return false
		}
		return res.Cycles > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: tighter tuples never change WHAT executes, only WHEN: the
// per-kernel DRAM/L2 traffic may differ, but total instructions and
// loads are invariant (verified above), and results stay deterministic
// per tuple.
func TestTupleDeterminismProperty(t *testing.T) {
	k := testutil.ThrashKernel("det2", 20, 20, 4)
	f := func(nRaw uint8) bool {
		n := int(nRaw)%24 + 1
		a := testutil.RunTiny(k, sim.Fixed{N: n, P: (n + 1) / 2})
		b := testutil.RunTiny(k, sim.Fixed{N: n, P: (n + 1) / 2})
		return a.Cycles == b.Cycles && a.L1.Hits == b.L1.Hits &&
			a.DRAMAcc == b.DRAMAcc && a.AML == b.AML
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: a hostile policy that thrashes tuples every few
// cycles must neither deadlock nor corrupt execution.
type hostilePolicy struct{ step int64 }

func (h *hostilePolicy) Name() string { return "hostile" }
func (h *hostilePolicy) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	g.SetTupleAll(1, 1)
	return 7
}
func (h *hostilePolicy) Step(g *sim.GPU, now int64) int64 {
	h.step++
	n := int(h.step%24) + 1
	p := int(h.step%7) + 1
	for i := range g.SMs {
		g.SetTuple(i, n, p)
	}
	return now + 7 + h.step%13
}

func TestHostilePolicySafe(t *testing.T) {
	k := testutil.ThrashKernel("hostile", 24, 40, 6)
	res := testutil.RunTiny(k, &hostilePolicy{})
	want := int64(k.TotalWarps()) * int64(k.Iters) * int64(len(k.Body))
	if res.Instructions != want {
		t.Fatalf("hostile steering corrupted execution: %d != %d", res.Instructions, want)
	}
}

// Failure injection: one-entry MSHR file with heavy misses — the
// harshest backpressure configuration — must still drain.
func TestOneEntryMSHRDrains(t *testing.T) {
	cfg := testutil.TinyConfig()
	cfg.L1.MSHRs = 1
	k := testutil.StreamKernel("mshr1", 25, 4)
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(k, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("one MSHR entry must cause replays")
	}
}

// Failure injection: a single DRAM partition and a single L2 bank (the
// maximum-contention memory side) must still complete with sane AML.
func TestMaximumContentionMemorySide(t *testing.T) {
	cfg := testutil.TinyConfig()
	cfg.DRAMPartitions = 1
	cfg.L2Banks = 1
	cfg.L2.SizeBytes = cfg.L2.SizeBytes / cfg.L2Banks
	k := testutil.StreamKernel("squeeze", 30, 4)
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(k, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AML <= float64(cfg.DRAMLatency) {
		t.Fatalf("AML %.0f must exceed the unloaded DRAM latency under congestion", res.AML)
	}
}

// Iteration jitter must not break completion accounting.
func TestJitteredKernelCompletes(t *testing.T) {
	k := testutil.ThrashKernel("jit", 16, 40, 4)
	k.IterJitter = 0.4
	var want int64
	for w := 0; w < k.TotalWarps(); w++ {
		want += int64(k.WarpIters(w)) * int64(len(k.Body))
	}
	res := testutil.RunTiny(k, sim.GTO{})
	if res.Instructions != want {
		t.Fatalf("jittered kernel: %d != %d", res.Instructions, want)
	}
}

// Occupancy-limited kernels leave scheduler slots empty and still
// complete; the tuple clamps to the occupancy bound.
func TestOccupancyLimitedRun(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("occl", 16, 20, 4)
	k.MaxWarpsPerSched = 8
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(k, sim.Fixed{N: 23, P: 23}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Fatal("no progress")
	}
	if n, _ := g.SMs[0].Tuple(); n > 23 {
		t.Fatalf("tuple exceeded request: %d", n)
	}
}

// Warm L2 across kernels of one workload: the second identical kernel
// must see a higher L2 hit rate than the first (contents persist).
func TestWarmL2AcrossKernels(t *testing.T) {
	k1 := testutil.SharedKernel("warm1", 64, 30, 4)
	k2 := testutil.SharedKernel("warm2", 64, 30, 4)
	k2.Patterns = k1.Patterns // same addresses
	w := testutil.Workload("warm", k1, k2)
	res, err := sim.RunWorkload(testutil.TinyConfig(), w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerKernel) != 2 {
		t.Fatal("need both kernels")
	}
	h1 := res.PerKernel[0].L2HitRate()
	h2 := res.PerKernel[1].L2HitRate()
	if h2 <= h1 {
		t.Fatalf("second kernel must benefit from warm L2: %.3f -> %.3f", h1, h2)
	}
}

// The config scaler must keep simulations valid across the whole range
// of SM counts.
func TestScaledConfigsAllRun(t *testing.T) {
	for _, sms := range []int{1, 2, 4, 8, 16} {
		cfg := config.Default().Scale(sms)
		k := testutil.ThrashKernel("scale", 16, 10, 4)
		g, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("sms=%d: %v", sms, err)
		}
		if _, err := g.Run(k, sim.GTO{}, sim.RunOptions{}); err != nil {
			t.Fatalf("sms=%d: %v", sms, err)
		}
	}
}
