package sched

import (
	"testing"

	"poise/internal/config"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// The windows PCAL-SWL and random-restart run at in these tests, short
// enough that a tiny kernel sees many decisions.
var (
	pcalParams = config.PoiseParams{TWarmup: 100, TFeature: 500, TPeriod: 5000}
	rrParams   = config.PoiseParams{TWarmup: 100, TSearch: 400, TPeriod: 4000, StrideN: 2, StrideP: 4}
)

// profileFor builds a real profile of a tiny kernel at coarse grid.
func profileFor(t *testing.T, k *trace.Kernel) map[string]*profile.Profile {
	t.Helper()
	pr, err := profile.Sweep(testutil.TinyConfig(), k, profile.SweepOptions{StepN: 6, StepP: 6})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*profile.Profile{k.Name: pr}
}

func TestSWLUsesDiagonal(t *testing.T) {
	k := testutil.ThrashKernel("swl", 20, 20, 4)
	profs := profileFor(t, k)
	src := SWLFromProfiles(profs)
	tu, ok := src[k.Name]
	if !ok {
		t.Fatal("SWL tuple missing")
	}
	if tu[0] != tu[1] {
		t.Fatalf("SWL tuple off-diagonal: %v", tu)
	}
	want := profs[k.Name].BestDiagonal()
	if tu[0] != want.N {
		t.Fatalf("SWL tuple %v, want diagonal best %d", tu, want.N)
	}
	// The policy actually applies it.
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol := SWL(profs)
	if pol.Name() != "SWL" {
		t.Fatal("policy name")
	}
	pol.KernelStart(g, k)
	if n, p := g.SMs[0].Tuple(); n != tu[0] || p != tu[1] {
		t.Fatalf("applied tuple (%d,%d), want %v", n, p, tu)
	}
}

func TestStaticBestUsesGlobalOptimum(t *testing.T) {
	k := testutil.ThrashKernel("sb", 20, 20, 4)
	profs := profileFor(t, k)
	src := BestFromProfiles(profs)
	want := profs[k.Name].Best()
	if src[k.Name] != [2]int{want.N, want.P} {
		t.Fatalf("static-best tuple %v, want (%d,%d)", src[k.Name], want.N, want.P)
	}
}

func TestPCALSWLConvergesAndRuns(t *testing.T) {
	k := testutil.ThrashKernel("pcal", 20, 150, 8)
	profs := profileFor(t, k)
	pol := NewPCALSWL(SWLFromProfiles(profs), pcalParams)
	res := testutil.RunTiny(k, pol)
	want := int64(k.TotalWarps()) * int64(k.Iters) * int64(len(k.Body))
	if res.Instructions != want {
		t.Fatalf("PCAL corrupted execution: %d != %d", res.Instructions, want)
	}
	if pol.Name() != "PCAL-SWL" {
		t.Fatal("name")
	}
}

func TestPCALStartsAtSWLPoint(t *testing.T) {
	k := testutil.ThrashKernel("pcal2", 20, 30, 4)
	src := TupleSource{k.Name: {5, 5}}
	pol := NewPCALSWL(src, pcalParams)
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol.KernelStart(g, k)
	if n, p := g.SMs[0].Tuple(); n != 5 || p != 5 {
		t.Fatalf("PCAL start tuple (%d,%d), want (5,5)", n, p)
	}
}

func TestCCWSThrottlesUnderThrash(t *testing.T) {
	// An 8-line sweep per warp: short enough for the canonical 8-entry
	// victim array to remember a line between eviction and re-touch.
	k := testutil.ThrashKernel("ccws", 8, 120, 8)
	pol := NewCCWS(config.PoiseParams{TFeature: 2000})
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(k, pol, sim.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	// Under heavy lost locality, CCWS must have reduced N below max.
	if n, _ := g.SMs[0].Tuple(); n >= testutil.TinyConfig().WarpsPerSched {
		t.Fatalf("CCWS never throttled (N=%d)", n)
	}
}

func TestCCWSLeavesStreamsAlone(t *testing.T) {
	// A pure stream produces no lost intra-warp locality (nothing is
	// ever reused), so CCWS should keep N high.
	k := testutil.StreamKernel("ccws-s", 60, 4)
	pol := NewCCWS(config.PoiseParams{TFeature: 2000})
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(k, pol, sim.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if n, _ := g.SMs[0].Tuple(); n < testutil.TinyConfig().WarpsPerSched-2 {
		t.Fatalf("CCWS over-throttled a stream (N=%d)", n)
	}
}

func TestAPCMBypassesStreamingPC(t *testing.T) {
	// A kernel with one streaming load and one high-reuse load: APCM
	// must mark only the streaming body position for bypass.
	b := &trace.BodyBuilder{}
	b.Load(1) // slot 0: stream
	b.ALU(2)
	b.Load(1) // slot 1: hot reuse
	b.ALU(2)
	k := &trace.Kernel{
		Name: "apcm",
		Body: b.Body(),
		Patterns: []trace.Pattern{
			trace.Stream{Region: 950, WrapLines: 1 << 14},
			trace.PrivateSweep{Region: 951, Lines: 2, Step: 1},
		},
		Iters:         300,
		WarpsPerBlock: 8,
		Blocks:        4,
	}
	pol := NewAPCM(config.PoiseParams{TFeature: 3000})
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(k, pol, sim.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	s := g.SMs[0]
	if !s.BypassPC[0] {
		t.Fatal("streaming load position must be bypassed")
	}
	if s.BypassPC[3] {
		t.Fatal("hot load position must not be bypassed")
	}
}

func TestRandomRestartDeterministicPerSeed(t *testing.T) {
	k := testutil.ThrashKernel("rr", 20, 80, 4)
	run := func(seed int64) int64 {
		pol := NewRandomRestart(seed, rrParams)
		return testutil.RunTiny(k, pol).Cycles
	}
	if run(1) != run(1) {
		t.Fatal("same seed must reproduce")
	}
	// Different seeds explore differently (almost surely different
	// cycle counts on a thrash kernel).
	if run(1) == run(2) && run(1) == run(3) {
		t.Fatal("seeds do not vary the search")
	}
}

// TestBaselinesReadTableIV: built from Table IV, each adaptive baseline
// first wakes after the window of Poise's it mirrors, and then after
// the one that follows it.
func TestBaselinesReadTableIV(t *testing.T) {
	p := config.DefaultPoise()
	warmup, feature, search := int64(p.TWarmup), int64(p.TFeature), int64(p.TSearch)
	for _, tc := range []struct {
		pol  sim.Policy
		wake [2]int64 // the first two wake-up cycles
	}{
		{NewCCWS(p), [2]int64{feature, 2 * feature}},
		{NewAPCM(p), [2]int64{feature, 2 * feature}},
		{NewPCALSWL(TupleSource{}, p), [2]int64{warmup, warmup + feature}},
		{NewRandomRestart(7, p), [2]int64{warmup, warmup + search}},
	} {
		g, err := sim.New(testutil.TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		first := tc.pol.KernelStart(g, testutil.ThrashKernel("tableiv", 20, 30, 4))
		if got := [2]int64{first, tc.pol.Step(g, first)}; got != tc.wake {
			t.Errorf("%s wakes at %v, want %v", tc.pol.Name(), got, tc.wake)
		}
	}
}

func TestIPCWindow(t *testing.T) {
	k := testutil.ThrashKernel("win", 16, 30, 4)
	g, err := sim.New(testutil.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(k, sim.GTO{}, sim.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	// A window opened at cycle 0 with zero counters spans the whole run.
	w := ipcWindow{startInstr: make([]int64, len(g.SMs))}
	ipc := w.ipc(g, g.Now())
	if ipc <= 0 {
		t.Fatalf("window IPC = %v", ipc)
	}
	per := w.ipcPerSM(g, g.Now())
	var sum float64
	for _, v := range per {
		sum += v
	}
	if sum <= 0 {
		t.Fatal("per-SM IPC must be positive")
	}
}
