package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/trace"
)

// ProfileExecutor runs profile sweep tasks against a local kernel
// catalogue via profile.RunTasks — the executor of the in-process
// sweep, so a task's measurement bytes do not depend on which process
// ran it.
type ProfileExecutor struct {
	Cfg     config.Config
	Kernels map[string]*trace.Kernel
	Opts    profile.SweepOptions
}

// Prepare implements Executor: it decodes the plan and fail-fasts on
// any task whose kernel is missing from this worker's catalogue or
// whose content digest disagrees with the local traces — a worker
// launched against the wrong trace set refuses the whole plan before
// leasing anything. The batch it returns trusts this check: it hashes
// no kernel again.
func (e ProfileExecutor) Prepare(planData []byte) (Batch, error) {
	plan, err := gridplan.ReadPlan(bytes.NewReader(planData))
	if err != nil {
		return nil, err
	}
	if err := profile.VerifyTasks(e.Kernels, plan.Tasks); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	b := profileBatch{e: e, verified: map[[2]string]bool{}}
	for _, t := range plan.Tasks {
		b.verified[[2]string{t.Kernel, t.Digest}] = true
	}
	return b, nil
}

// profileBatch is a verified plan: verified holds the {kernel, digest}
// pairs its tasks carry, each matched by VerifyTasks.
type profileBatch struct {
	e        ProfileExecutor
	verified map[[2]string]bool
}

// Run implements Batch.
func (b profileBatch) Run(lines []json.RawMessage) ([]json.RawMessage, error) {
	return runLines(lines, func(tasks []gridplan.Task) ([]gridplan.Measurement, error) {
		for _, t := range tasks {
			if !b.verified[[2]string{t.Kernel, t.Digest}] {
				return nil, fmt.Errorf("fleet: task %s is not of the prepared plan", t.Key())
			}
		}
		return profile.RunVerifiedTasks(b.e.Cfg, b.e.Kernels, tasks, b.e.Opts)
	})
}

// runLines is the adapter between the wire's task lines and an
// executor's typed tasks and records: decode, run, encode, aligned.
func runLines[T, R any](lines []json.RawMessage, run func([]T) ([]R, error)) ([]json.RawMessage, error) {
	tasks := make([]T, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal(l, &tasks[i]); err != nil {
			return nil, fmt.Errorf("fleet: task line %d: %w", i+1, err)
		}
	}
	records, err := run(tasks)
	if err != nil {
		return nil, err
	}
	out := make([]json.RawMessage, len(records))
	for i := range records {
		if out[i], err = json.Marshal(&records[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CellExecutor runs experiment-grid cells through a local harness's
// RunCellTasks — again the exact executor of the in-process grid.
type CellExecutor struct {
	H *experiments.Harness
}

// Prepare implements Executor: the plan must be a single grid's cells,
// and the harness's validation of the whole plan (tag, ordinals,
// digests) must accept it.
func (e CellExecutor) Prepare(planData []byte) (Batch, error) {
	plan, err := gridplan.ReadCellPlan(bytes.NewReader(planData))
	if err != nil {
		return nil, err
	}
	if len(plan.Cells) == 0 {
		return nil, fmt.Errorf("fleet: cell plan is empty")
	}
	grid := plan.Cells[0].Grid
	for _, c := range plan.Cells {
		if c.Grid != grid {
			return nil, fmt.Errorf("fleet: cell plan mixes grids %s and %s", grid, c.Grid)
		}
	}
	if err := e.H.ValidateCellPlan(grid, plan); err != nil {
		return nil, err
	}
	return cellBatch{e.H, grid}, nil
}

type cellBatch struct {
	h    *experiments.Harness
	grid string
}

// Run implements Batch.
func (b cellBatch) Run(lines []json.RawMessage) ([]json.RawMessage, error) {
	return runLines(lines, func(tasks []gridplan.CellTask) ([]results.CellResult, error) {
		return b.h.RunCellTasks(b.grid, tasks)
	})
}
