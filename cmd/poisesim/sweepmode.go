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
//	poisesim -workload ii -sweep -cache profs   # refined {N,p} sweeps
//	poisesim -best -cache profs                 # the static policy table
//
// -sweep is profile.Store.LoadOrSweepAll with Refine set, the call the
// experiment harness and poise.BuildDataset make: a fraction of each
// grid is simulated and the Static-Best, SWL and Eq. 12 scored tuples
// come out exact; the rest is not carried. The store keeps profiles and
// completed rounds, so a second run loads or resumes them.
// Splitting work across processes is the fleet's job (fleetmode.go);
// there is no other way.

type sweepModeArgs struct {
	cfg      config.Config
	cat      *workloads.Catalogue
	selected []*sim.Workload
	ctx      context.Context

	cache string // -cache: profiles, rounds and checkpoints
	sweep bool
	best  bool

	stepN, stepP int
	workers      int

	// Mid-run snapshot wiring (-cache): preempted tasks checkpoint into
	// ckpts and later runs pointed at the same directory resume them.
	ckpts *snap.Store
	ictl  *sim.InterruptCtl
}

// sweepOptions derives the profile.SweepOptions every mode shares:
// default refinement parameters, and the preemption wiring when
// -cache is set.
func (a sweepModeArgs) sweepOptions() profile.SweepOptions {
	return profile.SweepOptions{
		StepN: a.stepN, StepP: a.stepP, Workers: a.workers, Ctx: a.ctx,
		Refine:    true,
		Interrupt: a.ictl, Checkpoints: a.ckpts,
	}
}

// validateSweepFlags rejects -sweep and -best without a store before
// any file is read or task simulated.
func validateSweepFlags(a sweepModeArgs) error {
	switch {
	case a.best && a.cache == "":
		return fmt.Errorf("-best needs -cache (the profile store to read)")
	case a.sweep && a.cache == "":
		return fmt.Errorf("-sweep needs -cache (the profile store to fill)")
	}
	return nil
}

func runSweepMode(a sweepModeArgs) {
	if err := validateSweepFlags(a); err != nil {
		fatal(err)
	}
	switch {
	case a.best:
		printBestTable(a.cache)

	case a.sweep:
		swept, err := profile.Store{Dir: a.cache}.LoadOrSweepAll(a.cfg, sim.DistinctKernels(a.selected), a.sweepOptions())
		if err != nil {
			fatal(err)
		}
		for _, sw := range swept {
			if sw.Stats.GridPoints == 0 { // loaded, not refined
				fmt.Printf("cached %s in %s\n", sw.Profile.Kernel, a.cache)
				continue
			}
			fmt.Printf("pruned %s: %d of %d grid points (%.0f%%) in %d rounds -> %s\n",
				sw.Profile.Kernel, sw.Stats.Simulated, sw.Stats.GridPoints, 100*sw.Stats.Fraction(),
				sw.Stats.Rounds, a.cache)
		}
	}
}

// printBestTable derives the static policy table — the Static-Best,
// SWL-diagonal and Eq. 12 scored tuples with their profiled speedups —
// from every profile JSON in -cache. A refined sweep and a
// whole-grid sweep of the same grid print byte-identical tables (the
// catalogue equivalence tests pin the tuples), because those tuples are
// all any experiment consumes from a profile. The
// derivation is profile.BestTable — the same function the serve
// layer's /table endpoint answers with, so the two surfaces cannot
// drift apart.
func printBestTable(dir string) {
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
