package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"poise/internal/poise"
	"poise/internal/runner"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/workloads"
)

// rung is Fig. 11's Poise at strides (strideN, strideP), changed by
// each of edits in turn.
func rung(strideN, strideP int, edits ...func(*Harness, *poise.Policy) error) func(*Harness) (sim.Policy, error) {
	return func(h *Harness) (sim.Policy, error) {
		pol, err := hie((*Harness).ModelWeights, strideN, strideP)(h)
		for _, edit := range edits {
			if err == nil {
				err = edit(h, pol.(*poise.Policy))
			}
		}
		return pol, err
	}
}

// oracle takes N (if n) and p (if p) from the evaluation profiles' best
// tuples (sched.BestFromProfiles, what Static-Best pins) instead of the
// model's prediction.
func oracle(n, p bool) func(*Harness, *poise.Policy) error {
	return func(h *Harness, pol *poise.Policy) error {
		profs, err := h.WorkloadProfiles(h.EvalWorkloads())
		best, glm := sched.BestFromProfiles(profs), pol.Source
		pol.Source = func(kernel string, x poise.Vector, maxN int) (int, int) {
			gn, gp := glm(kernel, x, maxN)
			if t, ok := best[kernel]; ok {
				if n {
					gn = t[0]
				}
				if p {
					gp = t[1]
				}
			}
			return gn, gp
		}
		return err
	}
}

// once samples and searches once per kernel: an epoch longer than any
// kernel, with no guard (its checks would never come due).
func once(_ *Harness, pol *poise.Policy) error {
	pol.Params.TPeriod, pol.Guard = math.MaxInt32, false
	return nil
}

func unguarded(_ *Harness, pol *poise.Policy) error {
	pol.Guard = false
	return nil
}

// ladderRungs is the tax ladder: each rung a scheme over the evaluation
// workloads and its H-mean of IPC over GTO at -sms 4, seed 0. From
// Static-Best down to Fig. 7's Poise, each step adds one tax of the HIE
// (sampling, search, prediction), and the last rung drops the guard.
// (2,4) is Table IV's local search.
var ladderRungs = []struct {
	name   string
	policy func(*Harness) (sim.Policy, error)
	hmean  string
}{
	{"Static-Best", profiled(sched.StaticBest), "1.465"},
	{"Oracle once", rung(0, 0, oracle(true, true), once), "1.439"},
	{"Oracle (0,0)", rung(0, 0, oracle(true, true)), "1.362"},
	{"Oracle (2,4)", rung(2, 4, oracle(true, true)), "1.169"},
	{"Oracle N with the GLM's p", rung(0, 0, oracle(true, false)), "1.278"},
	{"The GLM's N with oracle p", rung(0, 0, oracle(false, true)), "1.188"},
	{"Poise (0,0)", rung(0, 0), "1.114"},
	{"Poise (2,4)", rung(2, 4), "1.074"},
	{"Poise (2,4), no guard", rung(2, 4, unguarded), "1.068"},
}

// TestTaxLadder measures where Poise's gap to Static-Best goes, rung by
// rung, over the profiles the evaluation already sweeps, and pins each
// H-mean to three decimals, and the guard's share (Poise (2,4) with the
// guard minus without) to +0.006. Static-Best, Poise (0,0) and Poise
// (2,4) are the golden file's Fig. 7 and Fig. 11 cells. About 60 s on
// two cores, so it runs under -full:
//
//	go test ./internal/experiments -run TestTaxLadder -args -full
func TestTaxLadder(t *testing.T) {
	if !testutil.Full() {
		t.Skip("the tax ladder runs under -full")
	}
	h := NewHarness(Options{SMs: 4, Size: workloads.Small})
	wls := h.EvalWorkloads()
	type cell struct{ rung, wl int }
	var cells []cell
	for r := -1; r < len(ladderRungs); r++ { // -1: the GTO baseline
		for w := range wls {
			cells = append(cells, cell{r, w})
		}
	}
	ipcs, err := runner.MapSlice(h.ctx(), h.Opt.Workers, cells, func(_ context.Context, _ int, c cell) (float64, error) {
		pol, err := gto(h)
		if c.rung >= 0 {
			pol, err = ladderRungs[c.rung].policy(h)
		}
		if err != nil {
			return 0, err
		}
		cr, err := h.runCellOn(h.Cfg, wls[c.wl], pol)
		return cr.Result.IPC, err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for r, rung := range ladderRungs {
		ratios := make([]float64, len(wls))
		for w := range wls {
			ratios[w] = ratio(ipcs[(r+1)*len(wls)+w], ipcs[w])
		}
		got[rung.name] = hmean(ratios)
		t.Logf("%-28s %.4f", rung.name, got[rung.name])
		if s := fmt.Sprintf("%.3f", got[rung.name]); s != rung.hmean {
			t.Errorf("%s: H-mean %s, want %s", rung.name, s, rung.hmean)
		}
	}
	// The share is the difference of the two rungs as the table prints
	// them; unrounded it is 1.0736 - 1.0682 = +0.0054.
	thousandths := func(name string) float64 { return math.Round(got[name] * 1000) }
	if d := thousandths("Poise (2,4)") - thousandths("Poise (2,4), no guard"); d != 6 {
		t.Errorf("the guard's share is %+.3f, want +0.006", d/1000)
	}
}
