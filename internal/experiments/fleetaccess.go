package experiments

import (
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/sim"
	"poise/internal/trace"
)

// What a fleet campaign over the harness's evaluation sweep needs
// (package fleet, cmd/poisebench -serve/-worker): the kernel set, the
// sweep options, the plan and the stores. The fleet is
// the one way to split a sweep or an experiment grid across processes.

// EvalKernels returns the evaluation kernel index (every kernel of
// every evaluation workload, by name).
func (h *Harness) EvalKernels() map[string]*trace.Kernel {
	idx := map[string]*trace.Kernel{}
	for _, k := range sim.DistinctKernels(h.EvalWorkloads()) {
		idx[k.Name] = k
	}
	return idx
}

// EvalSweepOptions returns the evaluation-grid sweep options, the
// refinement parameters and the harness's run memo included.
func (h *Harness) EvalSweepOptions() profile.SweepOptions { return h.sweepOptions(false) }

// EvalPlan enumerates the whole evaluation grid of every distinct
// evaluation kernel — the points a refined sweep chooses from, not the
// ones it simulates — each task tagged with the sweep's
// profile.SweepTag and the kernel's content digest. A fleet serves it
// as a fixed plan; the benchmark counts its tasks.
func (h *Harness) EvalPlan() (*gridplan.Plan, error) {
	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	opts := h.sweepOptions(false)
	tag := profile.SweepTag(h.Cfg, opts)
	for _, k := range sim.DistinctKernels(h.EvalWorkloads()) {
		kp := profile.BuildPlan(tag, h.Cfg, k, opts)
		plan.Tasks = append(plan.Tasks, kp.Tasks...)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// ProfileStore returns the harness's profile cache store.
func (h *Harness) ProfileStore() profile.Store { return h.store }

// CellStore returns the harness's experiment-cell cache store.
func (h *Harness) CellStore() results.Store { return h.cellStore }
