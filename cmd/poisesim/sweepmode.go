package main

import (
	"context"
	"fmt"

	"poise/internal/config"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// The sweep modes of poisesim, each one process:
//
//	poisesim -workload ii -sweep -profile-out profs   # refined {N,p} sweeps
//	poisesim -best -profile-out profs                 # the static policy table
//
// -sweep runs the adaptive refinement (one profile.Refinement over the
// selection): a fraction of each grid is simulated and the Static-Best,
// SWL and Eq. 12 scored tuples come out exact; the rest is not carried.
// -cache persists completed rounds, so a second run resumes them.
// Splitting work across processes is the fleet's job (fleetmode.go);
// there is no other way.

type sweepModeArgs struct {
	cfg      config.Config
	cat      *workloads.Catalogue
	selected []*sim.Workload
	ctx      context.Context

	profileDir string
	sweep      bool
	best       bool

	cacheDir     string // completed refinement rounds (-sweep and -serve)
	stepN, stepP int
	workers      int

	// Mid-run snapshot wiring (-snapshot-dir / -ckpt-at-cycle):
	// preempted tasks checkpoint into ckpts and later runs pointed at
	// the same directory resume them.
	snapDir string
	ckpts   *snap.Store
	ictl    *sim.InterruptCtl
}

// sweepOptions derives the profile.SweepOptions every mode shares:
// default refinement parameters, and the preemption wiring when
// -snapshot-dir is set.
func (a sweepModeArgs) sweepOptions() profile.SweepOptions {
	return profile.SweepOptions{
		StepN: a.stepN, StepP: a.stepP, Workers: a.workers, Ctx: a.ctx,
		Refine:    true,
		Interrupt: a.ictl, Checkpoints: a.ckpts,
	}
}

// validateSweepFlags rejects under-specified mode combinations before
// any file is read or task simulated. The cases mirror runSweepMode's
// dispatch order exactly, so the check always applies to the mode that
// would actually run; the table-driven cmd tests exercise every branch.
func validateSweepFlags(a sweepModeArgs) error {
	switch {
	case a.best:
		if a.profileDir == "" {
			return fmt.Errorf("-best needs -profile-out (the profile directory to read)")
		}
	case a.sweep:
		if a.profileDir == "" {
			return fmt.Errorf("-sweep needs -profile-out")
		}
	}
	return nil
}

func runSweepMode(a sweepModeArgs) {
	if err := validateSweepFlags(a); err != nil {
		fatal(err)
	}
	switch {
	case a.best:
		printBestTable(a.profileDir)

	case a.sweep:
		r := a.refinement(a.sweepOptions())
		if err := r.Run(); err != nil {
			fatal(err)
		}
		swept, err := r.Profiles(profile.Store{Dir: a.profileDir})
		if err != nil {
			fatal(err)
		}
		for _, sw := range swept {
			fmt.Printf("pruned %s: %d of %d grid points (%.0f%%) in %d rounds -> %s\n",
				sw.Profile.Kernel, sw.Stats.Simulated, sw.Stats.GridPoints, 100*sw.Stats.Fraction(),
				sw.Stats.Rounds, a.profileDir)
		}
	}
}

// refinement is the refined sweep of the -workload selection: what
// -sweep runs here and -serve hands to a fleet. Completed rounds
// persist in -cache, if it is set, under each kernel's profile.Key.
func (a sweepModeArgs) refinement(opts profile.SweepOptions) *profile.Refinement {
	return profile.NewRefinement(a.cfg, sim.DistinctKernels(a.selected), opts, profile.Store{Dir: a.cacheDir})
}

// printBestTable derives the static policy table — the Static-Best,
// SWL-diagonal and Eq. 12 scored tuples with their profiled speedups —
// from every profile JSON in -profile-out. A refined sweep and a
// whole-grid sweep of the same grid print byte-identical tables (the
// catalogue equivalence tests pin the tuples), because those tuples are
// all any experiment consumes from a profile. The
// derivation is profile.BestTable — the same function the serve
// layer's /table endpoint answers with, so the two surfaces cannot
// drift apart.
func printBestTable(dir string) {
	if dir == "" {
		fatal(fmt.Errorf("-best needs -profile-out (the profile directory to read)"))
	}
	table, err := profile.BestTable(dir, config.DefaultPoise())
	if err != nil {
		fatal(err)
	}
	fmt.Print(table)
}

// catalogueKernels indexes every kernel of every catalogue workload by
// name, so a fleet worker resolves plan tasks regardless of its own
// -workload selection; the plan's content digests still guard against
// a catalogue that materialises different kernels.
func catalogueKernels(cat *workloads.Catalogue) map[string]*trace.Kernel {
	idx := map[string]*trace.Kernel{}
	for _, name := range cat.Names() {
		w, err := cat.Get(name)
		if err != nil {
			fatal(err)
		}
		for _, k := range w.Kernels {
			idx[k.Name] = k
		}
	}
	return idx
}
