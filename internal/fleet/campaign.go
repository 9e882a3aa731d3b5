package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/results"
)

// Result is one accepted task result: the task's gridplan key and the
// executor's serialised record (a gridplan.Measurement or a
// results.CellResult, per the campaign's format).
type Result struct {
	Key  string
	Data json.RawMessage
}

// A Campaign feeds the coordinator plan generations. Next(0, nil) is
// the first call; each later call receives the previous generation's
// complete, key-ordered results and returns the next plan — its
// serialised JSONL (what workers fetch from /v1/plan), its leasable
// units, or done. Next is called under the coordinator's mutex and
// must not simulate; building the next refinement round from merged
// measurements is pure and cheap, which is exactly why refinement
// fits this interface.
type Campaign interface {
	// Format is the plan file format workers dispatch executors on
	// (gridplan.ProfilePlanFormat or gridplan.CellPlanFormat).
	Format() string
	Next(gen int, prev []Result) (planData []byte, units []unit, done bool, err error)
}

// anyPlan is what the two plan kinds have in common.
type anyPlan interface {
	Sort()
	Validate() error
}

// generation is the one body under every campaign's Next: sort and
// validate the plan, serialise it as workers fetch it (write), and cut
// it into one leasable unit per task.
func generation[T gridplan.Keyed](p anyPlan, tasks []T, write func(io.Writer) error) ([]byte, []unit, bool, error) {
	p.Sort() // in place: tasks is the plan's own slice
	if err := p.Validate(); err != nil {
		return nil, nil, false, err
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, nil, false, err
	}
	units := make([]unit, len(tasks))
	for i, t := range tasks {
		line, err := json.Marshal(t)
		if err != nil {
			return nil, nil, false, err
		}
		units[i] = unit{key: t.Key(), line: line}
	}
	return buf.Bytes(), units, false, nil
}

// ProfileCampaign serves one fixed profile sweep plan as a single
// generation. No command serves one (poisesim serves RefineCampaign);
// the fleet's tests and bench/'s fleet_loopback workload do.
type ProfileCampaign struct{ Plan *gridplan.Plan }

// Format implements Campaign.
func (c ProfileCampaign) Format() string { return gridplan.ProfilePlanFormat }

// Next implements Campaign.
func (c ProfileCampaign) Next(gen int, _ []Result) ([]byte, []unit, bool, error) {
	if gen > 0 {
		return nil, nil, true, nil
	}
	return generation(c.Plan, c.Plan.Tasks, func(w io.Writer) error { return gridplan.WritePlan(w, c.Plan) })
}

// CellCampaign serves one experiment-grid cell plan as a single
// generation.
type CellCampaign struct{ Plan *gridplan.CellPlan }

// Format implements Campaign.
func (c CellCampaign) Format() string { return gridplan.CellPlanFormat }

// Next implements Campaign.
func (c CellCampaign) Next(gen int, _ []Result) ([]byte, []unit, bool, error) {
	if gen > 0 {
		return nil, nil, true, nil
	}
	return generation(c.Plan, c.Plan.Cells, func(w io.Writer) error { return gridplan.WriteCellPlan(w, c.Plan) })
}

// decode turns accepted results back into the records the executors
// produced, refusing a record filed under another one's key.
func decode[R gridplan.Keyed](rs []Result) ([]R, error) {
	out := make([]R, len(rs))
	for i, r := range rs {
		if err := json.Unmarshal(r.Data, &out[i]); err != nil {
			return nil, fmt.Errorf("fleet: result %s: %w", r.Key, err)
		}
		if k := out[i].Key(); k != r.Key {
			return nil, fmt.Errorf("fleet: result key %s carries record %s", r.Key, k)
		}
	}
	return out, nil
}

// RefineCampaign serves a profile.Refinement: each generation is one
// round across every unconverged kernel, the plan the in-process sweep
// would run itself. Round persistence and resumption are the
// refinement's store's. The campaign's output is R.Profiles, not the
// coordinator's results: those lack the rounds that were resumed.
type RefineCampaign struct{ R *profile.Refinement }

// Format implements Campaign.
func (c RefineCampaign) Format() string { return gridplan.ProfilePlanFormat }

// Next implements Campaign: fold the previous round's measurements,
// then publish the next round's plan.
func (c RefineCampaign) Next(gen int, prev []Result) ([]byte, []unit, bool, error) {
	if gen > 0 {
		round, err := decode[gridplan.Measurement](prev)
		if err != nil {
			return nil, nil, false, err
		}
		if err := c.R.Fold(round); err != nil {
			return nil, nil, false, err
		}
	}
	plan, err := c.R.Next()
	if err != nil {
		return nil, nil, false, err
	}
	if len(plan.Tasks) == 0 {
		return nil, nil, true, nil
	}
	return generation(plan, plan.Tasks, func(w io.Writer) error { return gridplan.WritePlan(w, plan) })
}

// SaveCells decodes a cell campaign's results and saves the cell set
// through the same results.Store path an in-process grid run uses.
// Returns the (tag, grid) saved and the cell count.
func SaveCells(st results.Store, rs []Result) (tag, grid string, n int, err error) {
	cells, err := decode[results.CellResult](rs)
	if err != nil {
		return "", "", 0, err
	}
	if len(cells) == 0 {
		return "", "", 0, fmt.Errorf("fleet: no cell results to save")
	}
	tag, grid = cells[0].Tag, cells[0].Grid
	for _, c := range cells {
		if c.Tag != tag || c.Grid != grid {
			return "", "", 0, fmt.Errorf("fleet: mixed cell identities (%s/%s vs %s/%s)", tag, grid, c.Tag, c.Grid)
		}
	}
	if err := st.Save(tag, grid, cells); err != nil {
		return "", "", 0, err
	}
	return tag, grid, len(cells), nil
}
