package sim_test

import (
	"testing"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
)

func TestRunExactInstructionCount(t *testing.T) {
	k := testutil.ThrashKernel("exact", 16, 20, 4)
	res := testutil.RunTiny(k, sim.GTO{})
	want := int64(k.TotalWarps()) * int64(k.Iters) * int64(len(k.Body))
	if res.Instructions != want {
		t.Fatalf("Instructions = %d, want %d", res.Instructions, want)
	}
	if res.Cycles <= 0 || res.IPC <= 0 {
		t.Fatalf("bad cycles/IPC: %d %v", res.Cycles, res.IPC)
	}
	wantLoads := int64(k.TotalWarps()) * int64(k.Iters) * int64(k.LoadsPerIter())
	if res.Loads != wantLoads {
		t.Fatalf("Loads = %d, want %d", res.Loads, wantLoads)
	}
}

func TestRunDeterminism(t *testing.T) {
	k := testutil.ThrashKernel("det", 24, 30, 6)
	a := testutil.RunTiny(k, sim.GTO{})
	b := testutil.RunTiny(k, sim.GTO{})
	if a.Cycles != b.Cycles || a.L1.Hits != b.L1.Hits || a.DRAMAcc != b.DRAMAcc {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestThrottlingRecoversLocality(t *testing.T) {
	// The core phenomenon of the paper: on a thrash-prone kernel,
	// reducing the warp-tuple raises the L1 hit rate and cuts AML. The
	// tuple is chosen so the throttled footprint actually fits:
	// 2 schedulers x 2 warps x (20+10) lines = 120 < 128 L1 lines.
	k := testutil.ThrashKernel("thrash", 20, 40, 8)
	base := testutil.RunTiny(k, sim.GTO{})
	thr := testutil.RunTiny(k, sim.Fixed{N: 2, P: 2})
	if thr.L1.HitRate() <= base.L1.HitRate() {
		t.Fatalf("throttling must raise hit rate: %.3f -> %.3f",
			base.L1.HitRate(), thr.L1.HitRate())
	}
	if thr.AML >= base.AML {
		t.Fatalf("throttling must cut AML: %.1f -> %.1f", base.AML, thr.AML)
	}
}

func TestStreamingInsensitiveToTuple(t *testing.T) {
	k := testutil.StreamKernel("stream", 30, 4)
	base := testutil.RunTiny(k, sim.GTO{})
	thr := testutil.RunTiny(k, sim.Fixed{N: 4, P: 1})
	// Streaming has no recoverable locality: hit rates stay near zero
	// either way.
	if base.L1.HitRate() > 0.05 || thr.L1.HitRate() > 0.05 {
		t.Fatalf("stream kernels must not hit: %.3f / %.3f",
			base.L1.HitRate(), thr.L1.HitRate())
	}
	// And throttling cannot make it faster.
	if thr.IPC > base.IPC*1.02 {
		t.Fatalf("throttling a pure stream should not speed it up: %.3f -> %.3f",
			base.IPC, thr.IPC)
	}
}

func TestGTOEqualsFixedMax(t *testing.T) {
	k := testutil.ThrashKernel("eq", 20, 20, 4)
	cfg := testutil.TinyConfig()
	a, err := sim.RunWorkload(cfg, testutil.Workload("w", k), sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunWorkload(cfg, testutil.Workload("w", k),
		sim.Fixed{N: cfg.WarpsPerSched, P: cfg.WarpsPerSched}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("GTO and Fixed(max,max) must be identical: %d vs %d cycles",
			a.Cycles, b.Cycles)
	}
}

func TestOccupancyCapRespected(t *testing.T) {
	k := testutil.ThrashKernel("occ", 16, 10, 4)
	k.MaxWarpsPerSched = 4 // 8-warp blocks just fit 2 schedulers x 4
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(k, sim.GTO{}, sim.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if g.MaxN() != 4 {
		t.Fatalf("MaxN = %d, want 4", g.MaxN())
	}
}

func TestImpossibleOccupancyRejected(t *testing.T) {
	k := testutil.ThrashKernel("occ2", 16, 10, 4)
	k.MaxWarpsPerSched = 3 // 8-warp blocks cannot fit 2 x 3 slots
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(k, sim.GTO{}, sim.RunOptions{}); err == nil {
		t.Fatal("impossible block occupancy must be rejected")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	k := testutil.ThrashKernel("guard", 30, 500, 8)
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(k, sim.GTO{}, sim.RunOptions{MaxCycles: 100}); err == nil {
		t.Fatal("expected a max-cycles error")
	}
}

// TestWarmKernelsReportTheirOwnL2Traffic: a kernel's L2 accesses are
// the requests that crossed the NoC in that kernel (no test kernel
// stores), also for the second and later kernels of a workload, which
// run warm: they used to report the workload's running total, and the
// workload result then summed the totals.
func TestWarmKernelsReportTheirOwnL2Traffic(t *testing.T) {
	w := testutil.Workload("warm",
		testutil.ThrashKernel("k0", 48, 30, 3),
		testutil.StreamKernel("k1", 40, 4),
		testutil.SharedKernel("k2", 16, 30, 3))
	for _, engine := range []sim.Engine{sim.EngineReady, sim.EngineDense} {
		res, err := sim.RunWorkload(testutil.TinyConfig(), w, sim.GTO{}, sim.RunOptions{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		for _, kr := range res.PerKernel {
			if kr.L2Accesses != kr.NoCReqFlits || kr.L2Hits > kr.L2Accesses || kr.L2Accesses == 0 {
				t.Errorf("engine %d, kernel %s: %d L2 accesses (%d hits) for %d requests", engine, kr.Kernel, kr.L2Accesses, kr.L2Hits, kr.NoCReqFlits)
			}
		}
		if res.L2Acc != res.NoCReqFlits {
			t.Errorf("engine %d, workload: %d L2 accesses for %d requests", engine, res.L2Acc, res.NoCReqFlits)
		}
	}
}

func TestKernelValidationSurfaced(t *testing.T) {
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := &trace.Kernel{Name: "bad"}
	if _, err := g.Run(bad, sim.GTO{}, sim.RunOptions{}); err == nil {
		t.Fatal("invalid kernel must be rejected")
	}
}

// tuplePolicy flips tuples mid-run to verify that dynamic steering
// neither deadlocks nor corrupts accounting.
type tuplePolicy struct{ flips int }

func (p *tuplePolicy) Name() string { return "flipper" }
func (p *tuplePolicy) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	g.SetTupleAll(g.MaxN(), g.MaxN())
	return 500
}
func (p *tuplePolicy) Step(g *sim.GPU, now int64) int64 {
	p.flips++
	if p.flips%2 == 0 {
		g.SetTupleAll(2, 1)
	} else {
		g.SetTupleAll(g.MaxN(), 2)
	}
	return now + 500
}

func TestDynamicTupleChangesSafe(t *testing.T) {
	k := testutil.ThrashKernel("flip", 24, 60, 6)
	pol := &tuplePolicy{}
	res := testutil.RunTiny(k, pol)
	want := int64(k.TotalWarps()) * int64(k.Iters) * int64(len(k.Body))
	if res.Instructions != want {
		t.Fatalf("instruction count corrupted by tuple flips: %d != %d",
			res.Instructions, want)
	}
	if pol.flips == 0 {
		t.Fatal("policy never stepped")
	}
}

func TestWorkloadAggregation(t *testing.T) {
	k1 := testutil.ThrashKernel("wa1", 16, 15, 4)
	k2 := testutil.ThrashKernel("wa2", 16, 15, 4)
	w := testutil.Workload("two", k1, k2)
	res, err := sim.RunWorkload(testutil.TinyConfig(), w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerKernel) != 2 {
		t.Fatalf("PerKernel = %d", len(res.PerKernel))
	}
	if res.Instructions != res.PerKernel[0].Instructions+res.PerKernel[1].Instructions {
		t.Fatal("workload instruction aggregation wrong")
	}
	if res.Cycles != res.PerKernel[0].Cycles+res.PerKernel[1].Cycles {
		t.Fatal("workload cycle aggregation wrong")
	}
}

func TestWorkloadValidate(t *testing.T) {
	w := &sim.Workload{}
	if err := w.Validate(); err == nil {
		t.Fatal("unnamed workload must fail")
	}
	w.Name = "x"
	if err := w.Validate(); err == nil {
		t.Fatal("kernel-less workload must fail")
	}
}

func TestTupleTracing(t *testing.T) {
	k := testutil.ThrashKernel("trace", 16, 30, 4)
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.TraceTuples = true
	pol := &tuplePolicy{}
	res, err := g.Run(k, pol, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TupleLog) == 0 {
		t.Fatal("tuple log must capture SetTuple calls")
	}
}

func TestMSHRBackpressureCounted(t *testing.T) {
	// A kernel with far more concurrent misses than MSHR entries must
	// record replays.
	cfg := testutil.TinyConfig()
	cfg.L1.MSHRs = 2
	k := testutil.StreamKernel("pressure", 40, 6)
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(k, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("2-entry MSHR file must force replays on a stream")
	}
}

func TestL2AndDRAMCountersMove(t *testing.T) {
	k := testutil.StreamKernel("mem", 30, 4)
	res := testutil.RunTiny(k, sim.GTO{})
	if res.L2Accesses == 0 || res.DRAMAcc == 0 {
		t.Fatalf("memory-side counters must move: L2=%d DRAM=%d",
			res.L2Accesses, res.DRAMAcc)
	}
	if res.NoCReqFlits == 0 || res.NoCRespFlits == 0 {
		t.Fatal("NoC counters must move")
	}
	if res.AML <= 0 {
		t.Fatal("AML must be measured")
	}
}

func TestSharedKernelInterWarpHits(t *testing.T) {
	k := testutil.SharedKernel("share", 32, 40, 4)
	res := testutil.RunTiny(k, sim.GTO{})
	if res.L1.InterWarpHits == 0 {
		t.Fatal("a shared-sweep kernel must produce inter-warp hits")
	}
	if res.L1.InterWarpHits < res.L1.IntraWarpHits {
		t.Fatalf("inter-warp reuse must dominate: intra=%d inter=%d",
			res.L1.IntraWarpHits, res.L1.InterWarpHits)
	}
}

func TestConfigValidationAtNew(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 0
	if _, err := sim.New(cfg); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

func TestPolluteBitEffect(t *testing.T) {
	// At p=1 on a private-reuse kernel, non-polluting warps must show a
	// much lower hit rate than the polluting warp (paper Fig. 4).
	k := testutil.ThrashKernel("pollute", 24, 40, 6)
	cfg := testutil.TinyConfig()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(k, sim.Fixed{N: cfg.WarpsPerSched, P: 1}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hp := res.L1.PolluteHitRate()
	hnp := res.L1.NoPollHitRate()
	if hp <= hnp {
		t.Fatalf("polluting warps must out-hit non-polluting: hp=%.3f hnp=%.3f", hp, hnp)
	}
	if res.L1.Bypasses == 0 {
		t.Fatal("non-polluting misses must be counted as bypasses")
	}
}
