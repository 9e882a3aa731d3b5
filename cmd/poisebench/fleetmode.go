package main

import (
	"context"
	"fmt"

	"poise/internal/experiments"
	"poise/internal/fleet"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/sim"
)

// The fleet service flow for poisebench, the one way to spread its work
// across processes: the coordinator serves a campaign over HTTP to
// long-lived workers, with crash recovery (lease expiry), load
// rebalancing (work stealing) and the merged results landing directly
// in -cache — so the follow-up `poisebench -run ...` assembles its
// figures without re-simulating:
//
//	poisebench -run all -cache c -serve :9444      # profile sweeps
//	poisebench -run fig7 -cache c -serve :9444     # one experiment grid
//	poisebench -worker http://HOST:9444 -cache c   # terminal 2..N
//
// -run all serves the refinement of every evaluation kernel's sweep as
// one campaign, each round's plan published as the next generation.
// The flags, their shared rules, coordinator start-up and worker
// construction are package fleet's (fleet.Flags).

// benchFleetFlags carries the fleet flags plus the flags they
// constrain, so the combination rules live in one testable function.
type benchFleetFlags struct {
	fleet.Flags

	run      string
	cacheDir string
}

// validateBenchFleetFlags rejects inconsistent combinations before
// anything listens or simulates.
func validateBenchFleetFlags(f benchFleetFlags) error {
	if err := f.Flags.Validate(); err != nil {
		return err
	}
	if f.Worker != "" {
		return nil
	}
	// Coordinator: merged results land in the cache, and -run selects
	// the campaign.
	if f.cacheDir == "" {
		return fmt.Errorf("-serve needs -cache for the merged output")
	}
	_, err := gridOfRun(f.run)
	return err
}

// runFleetMode dispatches poisebench's -serve/-worker modes.
func runFleetMode(ctx context.Context, h *experiments.Harness, f benchFleetFlags) error {
	if err := validateBenchFleetFlags(f); err != nil {
		return err
	}
	if f.Worker != "" {
		// Both executors register; the coordinator's plan format picks
		// the pipeline, and the plan's tag and digests verify this
		// process's flags reproduce the coordinator's configuration.
		w := f.NewWorker(map[string]fleet.Executor{
			gridplan.ProfilePlanFormat: fleet.ProfileExecutor{
				Cfg: h.Cfg, Kernels: h.EvalKernels(), Opts: h.EvalSweepOptions(),
			},
			gridplan.CellPlanFormat: fleet.CellExecutor{H: h},
		})
		if err := w.Run(ctx); err != nil {
			return err
		}
		fmt.Printf("worker %s: campaign complete\n", w.Name)
		return nil
	}
	// The merged results go into the harness's own cache stores, where
	// figure assembly loads them like its own.
	camp, save, err := benchCampaign(h, f)
	if err != nil {
		return err
	}
	res, err := f.ServeCampaign(ctx, camp)
	if err != nil {
		return err
	}
	return save(res)
}

// benchCampaign maps -run to a fleet campaign plus its save step: one
// experiment's cell grid, or the refinement of the evaluation sweeps.
func benchCampaign(h *experiments.Harness, f benchFleetFlags) (fleet.Campaign, func([]fleet.Result) error, error) {
	grid, err := gridOfRun(f.run)
	if err != nil {
		return nil, nil, err
	}
	if grid != "" {
		plan, err := h.CellPlan(grid)
		if err != nil {
			return nil, nil, err
		}
		if len(plan.Cells) == 0 {
			return nil, nil, fmt.Errorf("grid %s enumerated no cells", grid)
		}
		save := func(res []fleet.Result) error {
			_, g, n, err := fleet.SaveCells(h.CellStore(), res)
			if err != nil {
				return err
			}
			fmt.Printf("fleet: merged %d cells of grid %s into the cache\n", n, g)
			return nil
		}
		return fleet.CellCampaign{Plan: plan}, save, nil
	}
	r := profile.NewRefinement(h.Cfg, sim.DistinctKernels(h.EvalWorkloads()),
		h.EvalSweepOptions(), h.ProfileStore())
	save := func([]fleet.Result) error {
		swept, err := r.Profiles()
		if err != nil {
			return err
		}
		fmt.Printf("fleet: assembled %d refined profiles into the cache\n", len(swept))
		return nil
	}
	return fleet.RefineCampaign{R: r}, save, nil
}
