package experiments

import (
	"reflect"
	"testing"

	"poise/internal/config"
	"poise/internal/profile"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/workloads"
)

// pinnedSchemes are the comparison schemes whose policy pins one tuple
// per kernel: their cells go through the run memo. PCAL-SWL and Poise
// steer mid-kernel and never do.
var pinnedSchemes = map[string]bool{"GTO": true, "SWL": true, "Static-Best": true}

// TestRunMemoOracle is the validation step reuse sits behind: for every
// tuple-pinned scheme class — GTO, SWL and Static-Best as package sched
// builds them from profiles, a bare Fixed tuple and the 64x-L1 Pbest
// probe — over one-, two- and four-kernel catalogue workloads, a cell
// answered from the harness's memo equals a fresh simulation bit for
// bit, carries the labels of the cell that asked, and cannot be altered
// through a copy handed out earlier. The profiles are written by hand,
// one tuple per kernel, so that the five classes are five different
// runs (on a coarse swept grid SWL and Static-Best often are GTO).
func TestRunMemoOracle(t *testing.T) {
	subset := []string{"bfs", "ss", "syr2k"} // 2, 4 and 1 kernels
	if raceEnabled {
		subset = []string{"bfs"}
	}
	h := NewHarness(Options{SMs: 2, Size: workloads.Small, EvalSubset: subset})
	profs := map[string]*profile.Profile{}
	for _, wl := range h.EvalWorkloads() {
		for i, k := range wl.Kernels {
			profs[k.Name] = &profile.Profile{
				Kernel:   k.Name,
				Baseline: profile.Point{N: 24, P: 24, Speedup: 1},
				Points: []profile.Point{
					{N: 3 + i, P: 3 + i, Speedup: 1.2}, // best on the diagonal: SWL
					{N: 5 + i, P: 2 + i, Speedup: 1.3}, // best anywhere: Static-Best
				},
			}
		}
	}
	big := h.Cfg
	big.L1.SizeBytes *= 64
	classes := []struct {
		name   string
		cfg    config.Config
		policy sim.Policy
	}{
		{"GTO", h.Cfg, sim.GTO{}},
		{"SWL", h.Cfg, sched.SWL(profs)},
		{"Static-Best", h.Cfg, sched.StaticBest(profs)},
		{"Fixed", h.Cfg, sim.Fixed{N: 4, P: 2}},
		{"Pbest", big, sim.GTO{}},
	}
	memo := h.RunMemo()
	for _, wl := range h.EvalWorkloads() {
		for _, c := range classes {
			pol := c.policy
			fresh, err := sim.RunWorkload(c.cfg, wl, pol, sim.RunOptions{})
			if err != nil {
				t.Fatalf("%s under %s: %v", wl.Name, c.name, err)
			}
			// The first ask simulates; from the second on nothing may.
			for ask := 0; ask < 3; ask++ {
				before := memo.Simulated.Load()
				wantSimulated := int64(0)
				if ask == 0 {
					wantSimulated = int64(len(wl.Kernels))
				}
				cr, err := h.runCellOn(c.cfg, wl, pol)
				if err != nil {
					t.Fatalf("%s under %s, ask %d: %v", wl.Name, c.name, ask, err)
				}
				got := cr.Result
				if simulated := memo.Simulated.Load() - before; simulated != wantSimulated {
					t.Fatalf("%s under %s, ask %d simulated %d kernel runs, want %d", wl.Name, c.name, ask, simulated, wantSimulated)
				}
				if !reflect.DeepEqual(fresh, got) {
					t.Fatalf("%s under %s, ask %d: memo answer differs from a fresh simulation:\nfresh: %+v\n memo: %+v",
						wl.Name, c.name, ask, fresh, got)
				}
				if got.Workload != wl.Name || got.Policy != pol.Name() {
					t.Fatalf("%s under %s, ask %d: labelled (%q, %q)", wl.Name, c.name, ask, got.Workload, got.Policy)
				}
				for i, kr := range got.PerKernel {
					if kr.Kernel != wl.Kernels[i].Name {
						t.Fatalf("%s under %s, ask %d: kernel %d labelled %q", wl.Name, c.name, ask, i, kr.Kernel)
					}
				}
				// Scribble over everything a result shares by reference.
				got.PerKernel[0].PerSM[0].Instructions = -7
				got.PerKernel[0].PerSM = got.PerKernel[0].PerSM[:0]
				got.PerKernel[len(got.PerKernel)-1] = sim.KernelResult{Kernel: "scribble"}
			}
		}
	}
}

// TestSchemeGridReusesSweepPoints counts kernel runs on a harness
// shaped like the benchmark's fig7_mini (4 SMs, Small, syr2k/bfs/
// kmeans, step 12, two workers). SWL and Static-Best are read off the
// swept profile and GTO is its baseline point, so on a one-kernel
// workload those three cells are sweep points; without the memo a
// pass is 20 sweep points plus 20 kernel runs inside the 15 cells, and
// 8 of the latter repeat a run the harness already did. The scheme
// grid's cells must still equal a memo-less simulation of each (checked
// at seed 5, the benchmark's; seed 0 checks the count).
func TestSchemeGridReusesSweepPoints(t *testing.T) {
	seeds := []int64{0, 5}
	if raceEnabled {
		seeds = seeds[1:]
	}
	for _, seed := range seeds {
		h := NewHarness(Options{
			SMs: 4, Size: workloads.Small, EvalSubset: []string{"syr2k", "bfs", "kmeans"},
			EvalStepN: 12, EvalStepP: 12, Workers: 2, Seed: seed,
		})
		memo := h.RunMemo()
		plan, err := h.EvalPlan()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WorkloadProfiles(h.EvalWorkloads()); err != nil {
			t.Fatal(err)
		}
		points := int64(len(plan.Tasks))
		if s, r := memo.Simulated.Load(), memo.Reused.Load(); s != points || r != 0 {
			t.Fatalf("seed %d: the sweep simulated %d and reused %d kernel runs, plan has %d points", seed, s, r, points)
		}

		cells, err := h.GridCells("scheme")
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]*sim.Workload{}
		for _, wl := range h.EvalWorkloads() {
			byName[wl.Name] = wl
		}
		var pinned, adaptive int64 // kernel runs the cells ask for
		for _, c := range cells {
			wl := byName[c.Workload]
			if pinnedSchemes[c.Scheme] {
				pinned += int64(len(wl.Kernels))
			} else {
				adaptive += int64(len(wl.Kernels))
			}
			if seed != 5 {
				continue
			}
			pol, err := comparison[c.Ord].policy(h)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.RunWorkload(h.Cfg, wl, pol, sim.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, c.Result) {
				t.Fatalf("seed %d: cell %s/%s differs from a memo-less run:\nwant %+v\n got %+v",
					seed, c.Workload, c.Scheme, want, c.Result)
			}
		}
		asked := points + pinned + adaptive
		simulated := memo.Simulated.Load() + adaptive
		reused := memo.Reused.Load()
		t.Logf("seed %d: %d kernel runs asked for, %d simulated, %d reused (%d cycles not re-simulated)",
			seed, asked, simulated, reused, memo.CyclesSaved.Load())
		if asked != 40 || simulated != 32 || reused != 8 {
			t.Fatalf("seed %d: asked %d, simulated %d, reused %d kernel runs; want 40, 32, 8", seed, asked, simulated, reused)
		}
	}
}

// TestHoldoutReusesTheEvalSweep: Table II's hold-out measures each
// first kernel's features at the two corners of its eval grid, so it
// simulates no corner its refined eval sweep already ran: the run memo
// answers every corner the profile carries and simulates only the ones
// it lacks.
func TestHoldoutReusesTheEvalSweep(t *testing.T) {
	h := NewHarness(Options{SMs: 2, EvalSubset: []string{"bfs", "syr2k"}, EvalStepN: 6, EvalStepP: 6})
	samples, err := h.holdout()
	if err != nil {
		t.Fatal(err)
	}
	swept, _ := h.SweepBooks()
	carried := 0
	for _, wl := range h.EvalWorkloads() {
		k := wl.Kernels[0]
		pr, err := h.KernelProfile(k) // the hold-out's, from memory
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{sim.KernelMaxN(h.Cfg, k), 1} {
			if _, ok := pr.Lookup(n, n); ok {
				carried++
			}
		}
	}
	memo := h.RunMemo()
	missing := 2*len(samples) - carried
	if got, want := memo.Simulated.Load(), int64(swept.Simulated+missing); got != want || memo.Reused.Load() != int64(carried) {
		t.Fatalf("the hold-out simulated %d runs and reused %d, want the sweep's %d plus %d missing corners, and %d reused",
			got, memo.Reused.Load(), swept.Simulated, missing, carried)
	}
}
