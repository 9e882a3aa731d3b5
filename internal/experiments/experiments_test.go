package experiments

import (
	"bytes"
	"strings"
	"testing"

	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/workloads"
)

// The heavyweight end-to-end experiments run through the benchmark
// harness (bench_test.go at the repository root). These tests cover the
// harness plumbing and the cheap experiments at a tiny scale.

func tinyHarness() *Harness {
	return NewHarness(Options{SMs: 2, Size: workloads.Small,
		EvalStepN: 8, EvalStepP: 8, TrainStepN: 8, TrainStepP: 8})
}

func TestHarnessDefaults(t *testing.T) {
	h := NewHarness(Options{})
	if h.Cfg.NumSMs != 8 {
		t.Fatalf("default SMs = %d", h.Cfg.NumSMs)
	}
	if h.Opt.EvalStepN != 2 || h.Opt.RandomSeeds != 3 {
		t.Fatalf("defaults wrong: %+v", h.Opt)
	}
}

func TestKernelProfileMemoised(t *testing.T) {
	h := tinyHarness()
	k := h.Cat.Must("wc").Kernels[0]
	a, err := h.KernelProfile(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.KernelProfile(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("profile must be memoised per harness")
	}
}

func TestCostAccounting(t *testing.T) {
	h := NewHarness(Options{SMs: 32})
	c := h.Cost()
	// The paper's budget: 7 counters (28 B) + FSM (1 B) + 96 scheduler
	// bits (12 B) = 41 B per SM, ~1.3 kB chip-wide.
	if c.TotalPerSM < 40 || c.TotalPerSM > 42 {
		t.Fatalf("per-SM cost %.2f B, want ~41 B", c.TotalPerSM)
	}
	if c.TotalChipBytes < 1280 || c.TotalChipBytes > 1350 {
		t.Fatalf("chip cost %.0f B, want ~1304 B", c.TotalChipBytes)
	}
	if c.VitalBits != 48 || c.PolluteBits != 48 {
		t.Fatal("scheduler bit accounting wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"name", "a", "b"}}
	tbl.Add("row1", "1.0", "2.0")
	tbl.AddF("row2", 2, 3.14159, 2.71828)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"name", "row1", "row2", "3.14", "2.72"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSpace(t *testing.T) {
	pr := &profile.Profile{Kernel: "k", MaxN: 4}
	for n := 1; n <= 4; n++ {
		for p := 1; p <= n; p++ {
			pr.Points = append(pr.Points, profile.Point{N: n, P: p, Speedup: 1.3})
		}
	}
	var buf bytes.Buffer
	RenderSpace(&buf, pr, map[string][2]int{"M": {4, 2}})
	out := buf.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "M") {
		t.Fatalf("space rendering missing markers:\n%s", out)
	}
}

func TestSimulatePCALSearchFindsLocalOptimum(t *testing.T) {
	// A two-peak profile: PCAL from the CCWS point must stop at the
	// nearby peak, not the global one — the paper's Fig. 2 pathology.
	pr := &profile.Profile{Kernel: "peaks", MaxN: 8}
	add := func(n, p int, s float64) {
		pr.Points = append(pr.Points, profile.Point{N: n, P: p, Speedup: s})
	}
	for n := 1; n <= 8; n++ {
		for p := 1; p <= n; p++ {
			add(n, p, 1.0)
		}
	}
	set := func(n, p int, s float64) {
		for i := range pr.Points {
			if pr.Points[i].N == n && pr.Points[i].P == p {
				pr.Points[i].Speedup = s
			}
		}
	}
	set(2, 2, 1.07) // CCWS diagonal peak
	set(2, 1, 1.35) // local optimum after the parallel-p step
	set(3, 1, 0.80) // valley blocking the climb
	set(7, 1, 1.45) // global optimum, unreachable by hill climbing
	ccws := pr.BestDiagonal()
	if ccws.N != 2 {
		t.Fatalf("CCWS point = %+v", ccws)
	}
	got := simulatePCALSearch(pr, ccws)
	if got.N != 2 || got.P != 1 {
		t.Fatalf("PCAL converged to (%d,%d), want the (2,1) local optimum", got.N, got.P)
	}
	if best := pr.Best(); best.N != 7 {
		t.Fatalf("global best = %+v", best)
	}
}

func TestConvergedTuples(t *testing.T) {
	// Converged = last steering before the next prediction per SM.
	log := []sim.TupleEvent{
		{Cycle: 1, SM: 0, N: 24, P: 24},
		{Cycle: 2, SM: 0, N: 8, P: 4, Predicted: true},
		{Cycle: 3, SM: 0, N: 6, P: 4},
		{Cycle: 4, SM: 0, N: 7, P: 3},
		{Cycle: 5, SM: 0, N: 24, P: 24, Predicted: true},
		{Cycle: 6, SM: 0, N: 9, P: 2},
	}
	out := convergedTuples(log)
	if len(out) != 2 {
		t.Fatalf("converged count = %d, want 2", len(out))
	}
	if out[0].N != 7 || out[0].P != 3 {
		t.Fatalf("first converged = %+v", out[0])
	}
	if out[1].N != 9 || out[1].P != 2 {
		t.Fatalf("second converged = %+v", out[1])
	}

	// Eight SMs still searching at the log's end flush in SM order,
	// whatever order their events came in.
	var tail []sim.TupleEvent
	for i, smID := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
		tail = append(tail,
			sim.TupleEvent{Cycle: int64(i), SM: smID, N: 8, P: 8, Predicted: true},
			sim.TupleEvent{Cycle: int64(i), SM: smID, N: smID + 1, P: 1})
	}
	out = convergedTuples(tail)
	if len(out) != 8 {
		t.Fatalf("tail converged count = %d, want 8", len(out))
	}
	for i, ev := range out {
		if ev.SM != i || ev.N != i+1 {
			t.Fatalf("tail converged[%d] = %+v, want SM %d at N %d", i, ev, i, i+1)
		}
	}
}
