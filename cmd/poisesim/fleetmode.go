package main

import (
	"errors"
	"fmt"
	"time"

	"poise/internal/fleet"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/sim"
)

// The fleet flow, the one way to spread a sweep campaign across
// processes: one coordinator process serves lease batches of a plan
// over HTTP and merges the streamed results; long-lived workers pull
// leases until the campaign completes. Crashed workers are recovered by
// lease expiry, loaded workers are relieved by work stealing, and the
// merged output is byte-identical to the single-process run either way.
// The shared flags and wiring are fleet.Flags; this file is what -serve
// means here, which executor a worker runs, and the chaos hooks.
//
// Without -plan the coordinator drives the refinement of the selected
// workloads — what -sweep runs in one process — publishing each round's
// plan as the next generation (-cache keeps completed rounds, so an
// interrupted campaign resumes):
//
//	poisesim -workload ii -serve :9444 -cache rounds -profile-out profs   # terminal 1
//	poisesim -worker http://HOST:9444                                     # terminal 2..N
//
// With -plan it serves that file, a whole-grid profile plan from
// -emit-plan:
//
//	poisesim -workload ii -emit-plan plan.jsonl
//	poisesim -serve :9444 -plan plan.jsonl -profile-out profs
//
// Experiment-grid campaigns (workload x scheme cells) need the
// experiment harness and are poisebench's: `poisebench -serve`,
// `poisebench -worker`.

// fleetFlags carries the fleet flags together with the chaos hooks and
// the mode flags they constrain, so every combination rule lives in one
// pure, table-testable function.
type fleetFlags struct {
	fleet.Flags

	dieAfter  int           // -die-after (worker, chaos/CI)
	taskDelay time.Duration // -task-delay (worker, chaos/CI)

	// The flags of the one-process modes the fleet modes interact with.
	planPath   string
	emitPlan   string
	profileDir string
	sweep      bool
	best       bool
}

// validateFleetFlags rejects every inconsistent flag combination
// before anything listens, connects or simulates.
func validateFleetFlags(f fleetFlags) error {
	if err := f.Flags.Validate(); err != nil {
		return err
	}
	switch {
	case f.emitPlan != "":
		return fmt.Errorf("-emit-plan cannot combine with -serve/-worker (the coordinator publishes plans itself)")
	case f.sweep:
		return fmt.Errorf("-sweep cannot combine with -serve/-worker")
	case f.best:
		return fmt.Errorf("-best cannot combine with -serve/-worker")
	case f.dieAfter < 0:
		return fmt.Errorf("-die-after must be positive")
	case f.taskDelay < 0:
		return fmt.Errorf("-task-delay must be positive")
	}
	if f.Serve != "" {
		switch {
		case f.dieAfter != 0 || f.taskDelay != 0:
			return fmt.Errorf("-die-after and -task-delay are worker flags (use with -worker)")
		case f.profileDir == "":
			return fmt.Errorf("-serve needs -profile-out for the merged output")
		}
		return nil
	}
	// Worker: the plan and all merge policy arrive over the wire.
	switch {
	case f.planPath != "":
		return fmt.Errorf("-plan is a coordinator flag; the worker receives the plan from -worker URL")
	case f.profileDir != "":
		return fmt.Errorf("-profile-out is a coordinator flag; the coordinator merges and saves")
	}
	return nil
}

// runFleetMode dispatches -serve/-worker after validating the flag
// set, deriving the sweep options and profile tag exactly as -sweep
// does so both key the same entries.
func runFleetMode(a sweepModeArgs, f fleetFlags) {
	if err := validateFleetFlags(f); err != nil {
		fatal(err)
	}
	opts := a.sweepOptions()
	if f.Worker != "" {
		runFleetWorker(a, f, opts)
		return
	}
	camp, save, err := serveCampaign(a, f, opts, a.sweepTag(opts))
	if err != nil {
		fatal(err)
	}
	res, err := f.ServeCampaign(a.ctx, camp)
	if err != nil {
		fatal(err)
	}
	// The save steps assemble with the code the single-process modes
	// end in, which is what makes -profile-out byte-identical to theirs.
	n, err := save(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fleet: saved %d profiles -> %s\n", n, f.profileDir)
}

// serveCampaign builds the coordinator's campaign and the matching
// save step, which returns how many profiles it saved: the profile plan in
// -plan, or, without it, the refinement of the selected workloads.
func serveCampaign(a sweepModeArgs, f fleetFlags, opts profile.SweepOptions, tag string) (fleet.Campaign, func([]fleet.Result) (int, error), error) {
	out := profile.Store{Dir: f.profileDir}
	if f.planPath != "" {
		plan, err := gridplan.ReadPlanFile(f.planPath)
		if err != nil {
			return nil, nil, err
		}
		save := func(res []fleet.Result) (int, error) {
			names, err := fleet.SaveProfiles(out, res)
			return len(names), err
		}
		return fleet.ProfileCampaign{Plan: plan}, save, nil
	}
	// -cache persists completed rounds so an interrupted campaign
	// resumes instead of re-simulating. The refinement's own state, not
	// the coordinator's results, is what it saves from: it also holds
	// the rounds it resumed.
	r := a.refinement(opts, tag, profile.Store{Dir: a.cacheDir})
	save := func([]fleet.Result) (int, error) {
		swept, err := r.Profiles(out)
		return len(swept), err
	}
	return fleet.RefineCampaign{R: r}, save, nil
}

// runFleetWorker runs one long-lived worker against the coordinator at
// -worker URL, serving whole-grid plans and refinement rounds alike;
// the plan's digests verify this process's flags reproduce the
// coordinator's configuration before anything simulates.
func runFleetWorker(a sweepModeArgs, f fleetFlags, opts profile.SweepOptions) {
	w := f.NewWorker(map[string]fleet.Executor{
		gridplan.ProfilePlanFormat: fleet.ProfileExecutor{
			Cfg: a.cfg, Kernels: catalogueKernels(a.cat), Opts: opts,
		},
	})
	// -die-after and -task-delay are the CI chaos hooks: the fleet
	// round-trip kills one worker mid-lease and slows another until
	// stealing fires, then byte-diffs the merged output anyway. With
	// -snapshot-dir the death is checkpointed: the hook fires the
	// interrupt control, so the next task stops at a safe point, writes
	// its checkpoint to the shared store, and the lease lapses for
	// another worker to resume the task bit-identically.
	if f.dieAfter > 0 || f.taskDelay > 0 {
		w.BeforeTask = func(done int) error {
			if f.dieAfter > 0 && done >= f.dieAfter {
				if a.ictl != nil {
					a.ictl.Trigger()
					return nil
				}
				return fmt.Errorf("worker dying after %d tasks (-die-after)", done)
			}
			if f.taskDelay > 0 {
				select {
				case <-a.ctx.Done():
					return a.ctx.Err()
				case <-time.After(f.taskDelay):
				}
			}
			return nil
		}
	}
	if err := w.Run(a.ctx); err != nil {
		if errors.Is(err, sim.ErrInterrupted) {
			// Preemption is a clean exit: the in-flight task is
			// checkpointed in -snapshot-dir and any worker pointed there
			// picks it up once the lease lapses.
			fmt.Printf("worker %s: preempted; checkpoint saved under %s\n", w.Name, a.snapDir)
			return
		}
		fatal(err)
	}
	fmt.Printf("worker %s: campaign complete\n", w.Name)
}
