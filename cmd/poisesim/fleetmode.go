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
// The coordinator drives the refinement of the selected workloads —
// what -sweep runs in one process — publishing each round's plan as the
// next generation. Its -cache keeps completed rounds, so an interrupted
// campaign resumes, and receives the merged profiles. A worker's -cache
// is the checkpoint store it shares with the other workers:
//
//	poisesim -workload ii -serve :9444 -cache profs   # terminal 1
//	poisesim -worker http://HOST:9444 -cache snaps    # terminal 2..N
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
	cacheDir string
	sweep    bool
	best     bool
}

// validateFleetFlags rejects every inconsistent flag combination
// before anything listens, connects or simulates.
func validateFleetFlags(f fleetFlags) error {
	if err := f.Flags.Validate(); err != nil {
		return err
	}
	switch {
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
		case f.cacheDir == "":
			return fmt.Errorf("-serve needs -cache for the rounds and the merged profiles")
		}
	}
	return nil
}

// runFleetMode dispatches -serve/-worker after validating the flag
// set, deriving the sweep options exactly as -sweep does so both key
// the same entries.
func runFleetMode(a sweepModeArgs, f fleetFlags) {
	if err := validateFleetFlags(f); err != nil {
		fatal(err)
	}
	opts := a.sweepOptions()
	if f.Worker != "" {
		runFleetWorker(a, f, opts)
		return
	}
	r := profile.NewRefinement(a.cfg, sim.DistinctKernels(a.selected), opts, profile.Store{Dir: a.cache})
	if _, err := f.ServeCampaign(a.ctx, fleet.RefineCampaign{R: r}); err != nil {
		fatal(err)
	}
	// The refinement's own state, not the coordinator's results, is what
	// is saved: it also holds the rounds it resumed. It assembles with
	// the code -sweep ends in, which is what makes the profiles
	// byte-identical to -sweep's.
	swept, err := r.Profiles()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fleet: saved %d profiles -> %s\n", len(swept), a.cache)
}

// runFleetWorker runs one long-lived worker against the coordinator at
// -worker URL, serving the refinement's rounds; each plan's digests
// verify this process's flags reproduce the coordinator's configuration
// before anything simulates.
func runFleetWorker(a sweepModeArgs, f fleetFlags, opts profile.SweepOptions) {
	w := f.NewWorker(map[string]fleet.Executor{
		gridplan.ProfilePlanFormat: fleet.ProfileExecutor{
			Cfg: a.cfg, Kernels: catalogueKernels(a.cat), Opts: opts,
		},
	})
	// -die-after and -task-delay are the CI chaos hooks: the fleet
	// round-trip kills one worker mid-lease and slows another until
	// stealing fires, then byte-diffs the merged output anyway. With
	// -cache the death is checkpointed: the hook fires the
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
			// checkpointed in -cache and any worker pointed there picks
			// it up once the lease lapses.
			fmt.Printf("worker %s: preempted; checkpoint saved under %s\n", w.Name, a.cache)
			return
		}
		fatal(err)
	}
	fmt.Printf("worker %s: campaign complete\n", w.Name)
}
