package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"poise/internal/experiments"
	"poise/internal/gridplan"
	"poise/internal/results"
	"poise/internal/workloads"
)

// cellOptions mirrors the experiments test-suite subset: 2 SMs, the
// small workload scale, two evaluation workloads whose catalogue order
// (syr2k before bfs) is not their key order, and a coarse profile
// grid. CacheDir stays empty so each harness memoises its own profiles
// in memory — workers share nothing but the wire.
func cellOptions() experiments.Options {
	return experiments.Options{
		SMs: 2, Size: workloads.Small,
		EvalStepN: 12, EvalStepP: 12, TrainStepN: 12, TrainStepP: 12,
		Workers:    1,
		EvalSubset: []string{"syr2k", "bfs"},
	}
}

// TestCellCampaignByteIdentical: an experiment grid distributed over
// two workers — each with its own independently-constructed harness —
// must save a results store byte-identical to the one the single-process
// run, GridCells with a cache directory, saves.
func TestCellCampaignByteIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("cell simulation is ~10x slower under -race; the fleet protocol is race-covered by the profile chaos tests")
	}
	const grid = "scheme"
	refOpts := cellOptions()
	refOpts.CacheDir = t.TempDir()
	cells, err := experiments.NewHarness(refOpts).GridCells(grid)
	if err != nil {
		t.Fatal(err)
	}
	ref := dirBytes(t, refOpts.CacheDir)
	for name := range ref {
		if !strings.HasSuffix(name, ".cells.json") {
			delete(ref, name) // the profiles the grid swept
		}
	}

	// Fleet: a fresh plan (so the campaign, not the reference run,
	// defines what workers see) and two workers with separate
	// harnesses.
	campPlan, err := experiments.NewHarness(cellOptions()).CellPlan(grid)
	if err != nil {
		t.Fatal(err)
	}
	mkWorker := func(name string) *Worker {
		return &Worker{Name: name, Executors: map[string]Executor{
			gridplan.CellPlanFormat: CellExecutor{H: experiments.NewHarness(cellOptions())},
		}}
	}
	fopts := Options{LeaseTasks: 2, LeaseTTL: 5 * time.Minute, Logf: t.Logf}
	res, coord := fleetRun(t, CellCampaign{Plan: campPlan}, fopts,
		[]*Worker{mkWorker("w1"), mkWorker("w2")}, nil)
	if st := coord.Stats(); st.Tasks != len(campPlan.Cells) {
		t.Fatalf("stats %+v, want %d tasks", st, len(campPlan.Cells))
	}

	fleetDir := t.TempDir()
	tag, gotGrid, n, err := SaveCells(results.Store{Dir: fleetDir}, res)
	if err != nil {
		t.Fatal(err)
	}
	if tag != cells[0].Tag || gotGrid != grid || n != len(cells) {
		t.Fatalf("SaveCells = (%s, %s, %d), want (%s, %s, %d)", tag, gotGrid, n, cells[0].Tag, grid, len(cells))
	}
	if got := dirBytes(t, fleetDir); !reflect.DeepEqual(ref, got) {
		t.Fatal("fleet cell store differs from single-process store")
	}
}
