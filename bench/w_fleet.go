package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poise/internal/experiments"
	"poise/internal/fleet"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/workloads"
)

// fleetWorkload runs, in one process, a coordinator behind an HTTP
// server on loopback and two workers with the CLI defaults (lease 8,
// chunk 1). Each pass serves two campaigns: the profile sweep plan of
// the compute-intensive set (tasks of a few milliseconds, so leases,
// JSONL and HTTP are a visible share of the wall clock) and the Fig. 16
// cell grid of the same set, which is where this workload's GTO/Poise
// pairs come from.
type fleetWorkload struct {
	apps []string
	sms  int
	step int

	h        *experiments.Harness // the coordinator's view
	plan     *gridplan.Plan
	cellPlan *gridplan.CellPlan
	workerH  [fleetWorkers]*experiments.Harness // one per worker, as a worker process holds one

	ln        net.Listener
	srv       *http.Server
	served    chan struct{}
	mounted   atomic.Pointer[mount]
	campaigns int

	// inprocS is the calibrated wall clock of profile.RunTasks on the
	// same plan, measured by verify.
	inprocS float64
}

const fleetWorkers = 2

// mount is the campaign the server currently serves, under a path
// prefix of its own. A worker cancelled at the end of a campaign may
// leave a lease request behind that the server only reads once the next
// campaign is up; under a shared path the new coordinator would grant
// it a lease nobody runs, which expires a minute later. Under its own
// prefix the stale request is refused instead.
type mount struct {
	prefix string
	h      http.Handler
}

func (w *fleetWorkload) harness(e *env, workers int) *experiments.Harness {
	apps := w.apps
	if e.tiny {
		apps = apps[:1]
	}
	sp := e.begin("experiments.NewHarness")
	defer sp.end()
	return experiments.NewHarness(experiments.Options{
		SMs: w.sms, Size: workloads.Small, EvalSubset: apps,
		EvalStepN: w.step, EvalStepP: w.step, Workers: workers, Seed: e.seed,
	})
}

func (w *fleetWorkload) setup(e *env) error {
	w.h = w.harness(e, fleetWorkers)
	for i := range w.workerH {
		w.workerH[i] = w.harness(e, 1)
	}
	sp := e.begin("experiments.Harness.EvalPlan")
	plan, err := w.h.EvalPlan()
	sp.end()
	if err != nil {
		return err
	}
	plan.Sort()
	w.plan = plan

	cp, err := w.h.CellPlan("compute")
	if err != nil {
		return err
	}
	// The Fig. 16 grid spans the whole compute set; keep the cells of
	// the applications this workload sweeps.
	keep := map[string]bool{}
	for _, wl := range w.h.EvalWorkloads() {
		keep[wl.Name] = true
	}
	w.cellPlan = &gridplan.CellPlan{Version: cp.Version}
	for _, c := range cp.Cells {
		if keep[c.Workload] {
			w.cellPlan.Cells = append(w.cellPlan.Cells, c)
		}
	}
	w.cellPlan.Sort()

	sp = e.begin("net.Listen")
	w.ln, err = net.Listen("tcp", "127.0.0.1:0")
	sp.end()
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if m := w.mounted.Load(); m != nil && strings.HasPrefix(r.URL.Path, m.prefix+"/") {
			m.h.ServeHTTP(rw, r)
			return
		}
		http.Error(rw, "no such campaign", http.StatusGone)
	})}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(w.ln) // returns ErrServerClosed at teardown
	}()

	// Warm-up: the first lease-worth of tasks through the whole stack.
	warm := &gridplan.Plan{Version: plan.Version, Tasks: plan.Tasks[:min(8, len(plan.Tasks))]}
	_, _, err = w.campaign(e, fleet.ProfileCampaign{Plan: warm})
	return err
}

func (w *fleetWorkload) teardown() {
	if w.srv != nil {
		_ = w.srv.Close()
		<-w.served
		w.srv = nil
	}
}

// campaign serves one campaign to two fresh workers and returns the
// coordinator's key-ordered results and scheduling statistics.
func (w *fleetWorkload) campaign(e *env, camp fleet.Campaign) ([]fleet.Result, fleet.Stats, error) {
	sp := e.begin("fleet.NewCoordinator")
	coord, err := fleet.NewCoordinator(camp, fleet.Options{})
	sp.end()
	if err != nil {
		return nil, fleet.Stats{}, err
	}
	w.campaigns++
	prefix := fmt.Sprintf("/c%d", w.campaigns)
	w.mounted.Store(&mount{prefix, http.StripPrefix(prefix, coord.Handler())})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, fleetWorkers)
	for i := range errs {
		wh := w.workerH[i]
		worker := &fleet.Worker{
			Base: "http://" + w.ln.Addr().String() + prefix,
			Name: fmt.Sprintf("w%d", i),
			Executors: map[string]fleet.Executor{
				gridplan.ProfilePlanFormat: fleet.ProfileExecutor{
					Cfg: wh.Cfg, Kernels: wh.EvalKernels(), Opts: profile.SweepOptions{Workers: 1},
				},
				gridplan.CellPlanFormat: fleet.CellExecutor{H: wh},
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := e.tr.beginLane(e.cur, "fleet.Worker.Run", i+1)
			errs[i] = worker.Run(ctx)
			ws.end()
		}()
	}
	sp = e.begin("fleet.Coordinator.Wait")
	res, werr := coord.Wait(ctx)
	sp.end()
	// The campaign is over once the coordinator holds every result. An
	// idle worker would only learn that at its next 50 ms poll, which
	// would quantise the campaign's wall clock; cancel it instead.
	cancel()
	wg.Wait()
	for i, err := range errs {
		if errors.Is(err, context.Canceled) {
			errs[i] = nil
		}
	}
	if err := errors.Join(append(errs, werr)...); err != nil {
		return nil, coord.Stats(), err
	}
	return res, coord.Stats(), nil
}

// fleetCheck is the merged output of one pass.
type fleetCheck struct {
	Measurements []gridplan.Measurement
	Cells        []results.CellResult
}

// The two units of a fleet_loopback pass.
const (
	unitSweepCampaign = "fleet.campaign.sweep"
	unitCellCampaign  = "fleet.campaign.cells"
	unitInproc        = "profile.RunTasks" // verify's in-process reference
)

func (w *fleetWorkload) pass(e *env) (passOut, error) {
	out := passOut{SMs: w.h.Cfg.NumSMs, Exact: map[string]float64{}, Varied: map[string]float64{}}
	nTasks, nCells := len(w.plan.Tasks), len(w.cellPlan.Cells)
	out.Ops = nTasks + nCells

	var res, cres []fleet.Result
	var st, cst fleet.Stats
	var err error
	e.unit(unitSweepCampaign, func() { res, st, err = w.campaign(e, fleet.ProfileCampaign{Plan: w.plan}) })
	if err != nil {
		out.Failed = out.Ops
		return out, err
	}
	ms := make([]gridplan.Measurement, len(res))
	for i, r := range res {
		if err := json.Unmarshal(r.Data, &ms[i]); err != nil {
			return out, fmt.Errorf("task %s: %w", r.Key, err)
		}
		out.ExtraCycles += ms[i].Cycles
		out.ExtraInstr += ms[i].Instructions
		out.ExtraRuns++
	}
	if err := w.plan.Verify(ms); err != nil {
		out.Failed = nTasks
		return out, err
	}

	e.unit(unitCellCampaign, func() { cres, cst, err = w.campaign(e, fleet.CellCampaign{Plan: w.cellPlan}) })
	if err != nil {
		out.Failed = nCells
		return out, err
	}
	cells := make([]results.CellResult, len(cres))
	for i, r := range cres {
		if err := json.Unmarshal(r.Data, &cells[i]); err != nil {
			return out, fmt.Errorf("cell %s: %w", r.Key, err)
		}
	}
	if err := results.Verify(w.cellPlan, cells); err != nil {
		out.Failed = nCells
		return out, err
	}
	if err := addCells(&out, cells); err != nil {
		return out, err
	}
	out.Check = fleetCheck{ms, cells}

	// A healthy loopback campaign loses no lease and repeats no task.
	out.Failed += st.Expired + cst.Expired + st.Duplicates + cst.Duplicates
	out.Exact["profile.points"] = float64(nTasks)
	out.Exact["experiments.cells"] = float64(nCells)
	out.Exact["fleet.expired"] = float64(st.Expired + cst.Expired)
	out.Exact["fleet.duplicates"] = float64(st.Duplicates + cst.Duplicates)
	// Lease and steal counts depend on how the two workers interleave.
	out.Varied["fleet.leases"] = float64(st.Granted + cst.Granted)
	out.Varied["fleet.stolen_tasks"] = float64(st.StolenTasks + cst.StolenTasks)
	return out, nil
}

// flowMetrics derives the campaign rows from the cost of the two units.
func (w *fleetWorkload) flowMetrics(cost costOf, exact map[string]float64) map[string]float64 {
	m := sweepAndGrid(cost, unitSweepCampaign, unitCellCampaign, exact, fleetWorkers)
	m["fleet.tasks_per_s"] = m["profile.points_per_s"]
	m["fleet.over_inproc"] = m["profile.sweep_s"] / w.inprocS
	return m
}

// verify runs the same plans in process, through the executors the
// workers wrap, and requires the merged fleet output to equal them.
func (w *fleetWorkload) verify(e *env, first passOut) error {
	got := first.Check.(fleetCheck)

	// Timed three times and calibrated, median kept, like a pass.
	var ms []gridplan.Measurement
	var inproc []float64
	for i := 0; i < 3; i++ {
		var err error
		_, cal := e.calibrated(func() {
			sp := e.begin(unitInproc)
			ms, err = profile.RunTasks(w.h.Cfg, w.h.EvalKernels(), w.plan.Tasks, profile.SweepOptions{Workers: fleetWorkers})
			sp.end()
		})
		inproc = append(inproc, cal)
		if err != nil {
			return err
		}
		if e.tr == nil {
			break // only the traced run reports fleet.over_inproc
		}
	}
	w.inprocS = median(inproc)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Key() < ms[j].Key() })
	if !reflect.DeepEqual(ms, got.Measurements) {
		return errors.New("fleet measurements differ from profile.RunTasks")
	}

	sp := e.begin("experiments.Harness.RunCellTasks")
	cells, err := w.h.RunCellTasks("compute", w.cellPlan.Cells)
	sp.end()
	if err != nil {
		return err
	}
	// Cells crossed the wire as JSON; compare in that form.
	want, err := json.Marshal(cells)
	if err != nil {
		return err
	}
	have, err := json.Marshal(got.Cells)
	if err != nil {
		return err
	}
	if string(want) != string(have) {
		return errors.New("fleet cells differ from Harness.RunCellTasks")
	}
	return nil
}

func (w *fleetWorkload) probeSet() probeSet {
	apps := w.h.EvalWorkloads()
	return probeSet{cfg: w.h.Cfg, apps: apps, traced: apps[0], size: workloads.Small}
}
