// Package results persists executed experiment-grid cells: the
// workload-level sibling of package profile's {N, p} sweep store. A
// CellResult pairs a gridplan.CellTask's identity with the full
// sim.WorkloadResult the cell produced, and the Store keeps the merged
// JSON entry per (tag, grid) that figure runs load instead of
// re-simulating. Merging any decomposition of a plan — a fleet's
// leases — is reflect.DeepEqual-identical to the in-process grid run:
// Go's JSON encoding round-trips float64 exactly, and the key-ordered
// merge is the same verified machinery profile measurements use.
package results

import (
	"fmt"

	"poise/internal/gridplan"
	"poise/internal/sim"
)

// CellResult is one executed experiment cell: the identity fields of
// the gridplan.CellTask that produced it, the full workload result,
// and the policy-side extras some figures need.
type CellResult struct {
	Tag      string `json:"tag"`
	Grid     string `json:"grid"`
	Workload string `json:"workload"`
	Digest   string `json:"digest"`
	Scheme   string `json:"scheme"`
	Ord      int    `json:"ord"`

	Result sim.WorkloadResult `json:"result"`

	// Displacement between the predicted and converged warp-tuples
	// (Fig. 10), reported by cells whose policy exposes one (Poise).
	DispN   float64 `json:"dispN,omitempty"`
	DispP   float64 `json:"dispP,omitempty"`
	DispE   float64 `json:"dispE,omitempty"`
	HasDisp bool    `json:"hasDisp,omitempty"`
}

// Key mirrors gridplan.CellTask.Key, so cells merge and verify with
// the plan's ordering.
func (c CellResult) Key() string {
	return gridplan.CellTask{Tag: c.Tag, Grid: c.Grid, Workload: c.Workload,
		Scheme: c.Scheme, Ord: c.Ord}.Key()
}

// FromTask stamps a cell result with its task's identity.
func (c CellResult) FromTask(t gridplan.CellTask) CellResult {
	c.Tag, c.Grid, c.Workload, c.Digest, c.Scheme, c.Ord =
		t.Tag, t.Grid, t.Workload, t.Digest, t.Scheme, t.Ord
	return c
}

// Merge combines cell sets into one key-ordered set, rejecting
// duplicates, exactly like gridplan.Merge does for profile
// measurements.
func Merge(shards ...[]CellResult) ([]CellResult, error) {
	return gridplan.MergeKeyed(shards...)
}

// Verify checks that cells cover plan exactly — every cell present
// once, none extra (gridplan's generic cover check) — and that each
// cell's workload digest matches its task's, so a merged set from a
// drifted catalogue (or a stale merged cache entry after workloads
// were regenerated) fails loudly instead of feeding wrong numbers
// into a figure.
func Verify(plan *gridplan.CellPlan, cells []CellResult) error {
	if err := gridplan.VerifyCover(plan.Cells, cells, "result"); err != nil {
		return err
	}
	want := map[string]string{}
	for _, t := range plan.Cells {
		want[t.Key()] = t.Digest
	}
	for _, c := range cells {
		if d := want[c.Key()]; c.Digest != d {
			return fmt.Errorf("results: cell %s has workload digest %s, plan has %s (stale results or drifted catalogue?)",
				c.Key(), c.Digest, d)
		}
	}
	return nil
}
