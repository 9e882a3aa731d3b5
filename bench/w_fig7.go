package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/sim"
	"poise/internal/workloads"
)

// fig7Workload is what `poisebench -run fig7 -cache ”` does, cut to
// fit the run cap: a fresh harness per pass sweeps the {N, p} space of
// an evaluation subset on 2 workers and then runs the workload x scheme
// grid (GTO, SWL, PCAL-SWL, Poise, Static-Best).
type fig7Workload struct {
	subset []string
	sms    int
	step   int

	cfg config.Config
	wls []*sim.Workload
}

func (w *fig7Workload) harness(e *env, subset []string) (h *experiments.Harness) {
	e.unit("experiments.NewHarness", func() {
		h = experiments.NewHarness(experiments.Options{
			SMs: w.sms, Size: workloads.Small, EvalSubset: subset,
			EvalStepN: w.step, EvalStepP: w.step, Workers: 2, Seed: e.seed,
			CacheDir: "", SnapshotDir: "",
		})
	})
	return h
}

func (w *fig7Workload) names(e *env) []string {
	if e.tiny {
		return w.subset[:1]
	}
	return w.subset
}

func (w *fig7Workload) setup(e *env) error {
	// Warm-up: a one-kernel sweep through the same harness code.
	h := w.harness(e, w.subset[:1])
	w.cfg = h.Cfg
	var err error
	e.unit(unitSweep, func() { _, err = h.WorkloadProfiles(h.EvalWorkloads()) })
	if err != nil {
		return err
	}
	w.wls = nil
	for _, n := range w.names(e) {
		wl, err := h.Cat.Get(n)
		if err != nil {
			return err
		}
		w.wls = append(w.wls, wl)
	}
	return nil
}

// fig7Check is the part of a fig7 pass that must repeat exactly beyond
// the kernel results: the swept points and the assembled summary.
type fig7Check struct {
	Points map[string][]profile.Point
	Perf   *experiments.PerfSummary
}

// The two long units of a fig7_mini pass.
const (
	unitSweep = "experiments.Harness.WorkloadProfiles"
	unitGrid  = "experiments.Harness.Performance"
)

func (w *fig7Workload) pass(e *env) (passOut, error) {
	out := passOut{SMs: w.cfg.NumSMs, Exact: map[string]float64{}}
	h := w.harness(e, w.names(e))

	plan, err := h.EvalPlan()
	if err != nil {
		return out, err
	}
	nPoints := len(plan.Tasks)
	cellPlan, err := h.CellPlan("scheme")
	if err != nil {
		return out, err
	}
	out.Ops = nPoints + len(cellPlan.Cells)

	var profs map[string]*profile.Profile
	e.unit(unitSweep, func() { profs, err = h.WorkloadProfiles(h.EvalWorkloads()) })
	if err != nil {
		out.Failed = out.Ops
		return out, err
	}

	var perf *experiments.PerfSummary
	e.unit(unitGrid, func() { perf, err = h.Performance() })
	if err != nil {
		out.Failed = len(cellPlan.Cells)
		return out, err
	}
	cells, err := h.GridCells("scheme") // memoised by Performance
	if err != nil {
		return out, err
	}

	check := fig7Check{Points: map[string][]profile.Point{}, Perf: perf}
	swept := 0
	for _, name := range slices.Sorted(maps.Keys(profs)) {
		pr := profs[name]
		check.Points[name] = pr.Points
		swept += len(pr.Points)
		// A kernel executes the same instructions at every tuple, so a
		// point's cycle count follows from its IPC.
		for _, pt := range pr.Points {
			out.ExtraInstr += pr.BaselineInstr
			out.ExtraCycles += int64(math.Round(float64(pr.BaselineInstr) / pt.IPC))
			out.ExtraRuns++
		}
	}
	if swept != nPoints {
		return out, fmt.Errorf("sweep returned %d points, plan has %d", swept, nPoints)
	}
	out.Check = check
	if err := addCells(&out, cells); err != nil {
		return out, err
	}

	// The summary the harness assembled must agree with the pairs.
	hm, _, er, err := out.poiseMetrics()
	if err != nil {
		return out, err
	}
	if i := schemeIndex("Poise"); !closeTo(hm, perf.HMeanSpeedup[i]) || !closeTo(er, perf.MeanEnergyRatio) {
		return out, fmt.Errorf("PerfSummary disagrees with its cells: hmean %v vs %v, energy %v vs %v",
			perf.HMeanSpeedup[i], hm, perf.MeanEnergyRatio, er)
	}

	out.Exact["profile.points"] = float64(nPoints)
	out.Exact["experiments.cells"] = float64(len(cells))
	out.Exact["experiments.hmean_swl"] = perf.HMeanSpeedup[schemeIndex("SWL")]
	out.Exact["experiments.hmean_pcal_swl"] = perf.HMeanSpeedup[schemeIndex("PCAL-SWL")]
	out.Exact["experiments.hmean_static_best"] = perf.HMeanSpeedup[schemeIndex("Static-Best")]
	return out, nil
}

// flowMetrics derives the sweep and grid rows from the cost of the two
// units.
func (w *fig7Workload) flowMetrics(cost costOf, exact map[string]float64) map[string]float64 {
	return sweepAndGrid(cost, unitSweep, unitGrid, exact, 2)
}

// sweepAndGrid is shared by the two workloads that sweep a plan and
// run a cell grid: host time of each, the sweep's rate and its
// parallel efficiency on `workers` goroutines.
func sweepAndGrid(cost costOf, sweep, grid string, exact map[string]float64, workers float64) map[string]float64 {
	sw, sc := cost(sweep)
	gw, _ := cost(grid)
	return map[string]float64{
		"profile.sweep_s":      sw,
		"profile.points_per_s": exact["profile.points"] / sw,
		"runner.parallel_eff":  sc / (sw * workers),
		"experiments.grid_s":   gw,
	}
}

func schemeIndex(name string) int {
	for i, s := range experiments.SchemeNames {
		if s == name {
			return i
		}
	}
	panic("bench: unknown scheme " + name)
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }

// addCells folds experiment cells into a pass: their kernel results in
// key order, and a GTO/Poise pair per workload.
func addCells(out *passOut, cells []results.CellResult) error {
	cells = append([]results.CellResult(nil), cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key() < cells[j].Key() })
	type gp struct{ gto, poise *results.CellResult }
	byApp := map[string]*gp{}
	var order []string
	for i := range cells {
		c := &cells[i]
		out.addResult(c.Result)
		p := byApp[c.Workload]
		if p == nil {
			p = &gp{}
			byApp[c.Workload] = p
			order = append(order, c.Workload)
		}
		switch c.Scheme {
		case "GTO":
			p.gto = c
		case "Poise":
			p.poise = c
		}
	}
	for _, app := range order {
		p := byApp[app]
		if p.gto == nil || p.poise == nil {
			return fmt.Errorf("cells of %s lack a GTO or a Poise result", app)
		}
		out.Pairs = append(out.Pairs, pair{App: app, GTO: p.gto.Result, Poise: p.poise.Result})
	}
	return nil
}

func (w *fig7Workload) verify(*env, passOut) error { return nil }

func (w *fig7Workload) probeSet() probeSet {
	return probeSet{cfg: w.cfg, apps: w.wls, traced: w.wls[0], size: workloads.Small}
}

func (w *fig7Workload) teardown() {}
