package main

import (
	"context"
	"fmt"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// The sharded campaign flow, file-based so each step can run in a
// different process (or on a different machine — ship the plan out,
// ship the shard partials back). Profile sweep plans:
//
//	poisesim -workload ii -emit-plan plan.jsonl            # coordinator
//	poisesim -plan plan.jsonl -shard 0/2 -shard-out s0.jsonl   # worker 0
//	poisesim -plan plan.jsonl -shard 1/2 -shard-out s1.jsonl   # worker 1
//	poisesim -plan plan.jsonl -merge-shards s0.jsonl,s1.jsonl -profile-out profs
//
// -sweep writes the unsharded reference profiles for the same grid, so
// `diff -r` between the two output directories proves the shard path
// bit-identical (CI does exactly that).
//
// The same -plan/-shard/-merge-shards flags accept experiment-grid
// cell plans emitted by `poisebench -run <exp> -emit-plan` (the file's
// header says which kind it is): -shard runs the slice of workload x
// scheme cells through the experiment harness, and -merge-shards
// writes the merged cells into -profile-out, which poisebench then
// loads as its -cache. The worker's flags must reproduce the
// coordinator's configuration — the plan carries the configuration tag
// and workload digests, and mismatches fail before anything simulates.

type sweepModeArgs struct {
	cfg      config.Config
	cat      *workloads.Catalogue
	selected []*sim.Workload
	ctx      context.Context

	emitPlan   string
	planPath   string
	shard      string
	shardOut   string
	merge      string
	profileDir string
	sweep      bool
	prune      bool
	best       bool

	sms          int
	size         workloads.Size
	cacheDir     string
	seeds        int
	extra        []*sim.Workload
	stepN, stepP int
	workers      int
	seed         int64

	// Mid-run snapshot wiring (-snapshot-dir / -ckpt-at-cycle):
	// preempted tasks checkpoint into ckpts and later runs pointed at
	// the same directory resume them; cell-plan shards additionally use
	// the directory as the snapshot tier of their harness's run memo.
	snapDir string
	ckpts   *snap.Store
	ictl    *sim.InterruptCtl
}

// sweepOptions derives the profile.SweepOptions every mode shares,
// including the preemption wiring when -snapshot-dir is set.
func (a sweepModeArgs) sweepOptions() profile.SweepOptions {
	opts := profile.SweepOptions{StepN: a.stepN, StepP: a.stepP, Workers: a.workers, Ctx: a.ctx}
	if a.prune {
		opts.Refine = &profile.RefineOptions{}
	}
	opts.Interrupt = a.ictl
	opts.Checkpoints = a.ckpts
	return opts
}

// harness builds the experiment harness a cell plan's shard runs on,
// from the worker's own flags (tag agreement with the coordinator is
// verified against the plan before simulating). -cache shares the
// profile store across workers so profile-hungry grids (the scheme
// comparison's SWL/Static-Best cells, the ablation grid's training
// sweeps) pay for their sweeps once per campaign instead of once per
// shard; -trace workloads join the harness catalogue exactly as they
// do on the poisebench coordinator.
func (a sweepModeArgs) harness() *experiments.Harness {
	return experiments.NewHarness(experiments.Options{
		SMs: a.sms, Size: a.size, Seed: a.seed,
		CacheDir: a.cacheDir, RandomSeeds: a.seeds,
		EvalStepN: a.stepN, EvalStepP: a.stepP,
		Workers: a.workers, Ctx: a.ctx,
		ExtraWorkloads: a.extra,
		Prune:          a.prune,
		SnapshotDir:    a.snapDir,
	})
}

// validateSweepFlags rejects inconsistent file-based mode combinations
// before any file is read or task simulated. The cases mirror
// runSweepMode's dispatch order exactly, so the check always applies
// to the mode that would actually run; the table-driven cmd tests
// exercise every branch.
func validateSweepFlags(a sweepModeArgs) error {
	switch {
	case a.best:
		if a.profileDir == "" {
			return fmt.Errorf("-best needs -profile-out (the profile directory to read)")
		}
	case a.prune && a.emitPlan != "":
		if a.cacheDir == "" {
			return fmt.Errorf("-prune -emit-plan needs -cache for round partials")
		}
	case a.prune && a.merge != "":
		if a.planPath == "" || a.cacheDir == "" {
			return fmt.Errorf("-prune -merge-shards needs -plan and -cache")
		}
	case a.prune && a.sweep:
		if a.profileDir == "" {
			return fmt.Errorf("-prune -sweep needs -profile-out")
		}
	case a.emitPlan != "":
		// Plan emission needs only the workload selection.
	case a.shard != "":
		if _, _, err := gridplan.ParseShard(a.shard); err != nil {
			return err
		}
		if a.planPath == "" || a.shardOut == "" {
			return fmt.Errorf("-shard needs -plan and -shard-out")
		}
	case a.merge != "":
		if a.planPath == "" || a.profileDir == "" {
			return fmt.Errorf("-merge-shards needs -plan and -profile-out")
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
	// Default refinement parameters under -prune; folding them into the
	// tag keeps pruned and exhaustive campaigns from sharing cache
	// entries or round files.
	opts := a.sweepOptions()
	// The tag keys profiles by everything that changes them: the scaled
	// configuration, the grid resolution, the pruning mode, and the
	// catalogue seed (the kernels' stochastic streams). All processes
	// of one campaign agree on these flags, so they agree on the tag.
	tag := profile.SweepTag(a.cfg, opts)
	if a.seed != 0 {
		tag = fmt.Sprintf("%s-seed%d", tag, a.seed)
	}

	switch {
	case a.best:
		printBestTable(a.profileDir)

	case a.prune && a.emitPlan != "":
		emitRefineRound(a, tag, opts)

	case a.prune && a.merge != "":
		mergeRefineRound(a)

	case a.prune && a.sweep:
		if a.profileDir == "" {
			fatal(fmt.Errorf("-prune -sweep needs -profile-out"))
		}
		st := profile.Store{Dir: a.profileDir}
		for _, k := range sim.DistinctKernels(a.selected) {
			pr, stats, err := profile.PrunedSweep(a.cfg, k, opts)
			if err != nil {
				fatal(err)
			}
			if err := st.Save(tag, pr); err != nil {
				fatal(err)
			}
			fmt.Printf("pruned %s: %d of %d grid points (%.0f%%) in %d rounds -> %s\n",
				k.Name, stats.Simulated, stats.GridPoints, 100*stats.Fraction(),
				stats.Rounds, a.profileDir)
		}

	case a.emitPlan != "":
		plan := &gridplan.Plan{Version: gridplan.PlanVersion}
		kernels := sim.DistinctKernels(a.selected)
		for _, k := range kernels {
			kp := profile.BuildPlan(tag, a.cfg, k, opts)
			plan.Tasks = append(plan.Tasks, kp.Tasks...)
		}
		plan.Sort()
		if err := plan.Validate(); err != nil {
			fatal(err)
		}
		if err := gridplan.WritePlanFile(a.emitPlan, plan); err != nil {
			fatal(err)
		}
		fmt.Printf("plan %s: %d tasks over %d kernels (tag %s)\n",
			a.emitPlan, len(plan.Tasks), len(kernels), tag)

	case a.shard != "":
		index, count, err := gridplan.ParseShard(a.shard)
		if err != nil {
			fatal(err)
		}
		if a.planPath == "" || a.shardOut == "" {
			fatal(fmt.Errorf("-shard needs -plan and -shard-out"))
		}
		if planFormat(a.planPath) == gridplan.CellPlanFormat {
			runCellShard(a, index, count)
			return
		}
		plan, err := gridplan.ReadPlanFile(a.planPath)
		if err != nil {
			fatal(err)
		}
		sp, err := plan.Shard(index, count)
		if err != nil {
			fatal(err)
		}
		ms, err := profile.RunTasks(a.cfg, catalogueKernels(a.cat), sp.Tasks, opts)
		if err != nil {
			fatal(err)
		}
		if err := gridplan.WriteMeasurementsFile(a.shardOut, index, count, ms); err != nil {
			fatal(err)
		}
		fmt.Printf("shard %d/%d: %d of %d tasks -> %s\n",
			index, count, len(ms), len(plan.Tasks), a.shardOut)

	case a.merge != "":
		if a.planPath == "" || a.profileDir == "" {
			fatal(fmt.Errorf("-merge-shards needs -plan and -profile-out"))
		}
		files, err := gridplan.SplitFiles(a.merge)
		if err != nil {
			fatal(fmt.Errorf("-merge-shards: %w", err))
		}
		if planFormat(a.planPath) == gridplan.CellPlanFormat {
			mergeCellShards(a, files)
			return
		}
		st := profile.Store{Dir: a.profileDir}
		for _, g := range verifiedShardGroups(a.planPath, files) {
			pr, err := profile.MergeShards(g.Kernel, g.ms)
			if err != nil {
				fatal(err)
			}
			if err := st.Save(g.Tag, pr); err != nil {
				fatal(err)
			}
			fmt.Printf("merged %s: %d points -> %s\n", g.Kernel, len(pr.Points), a.profileDir)
		}

	case a.sweep:
		if a.profileDir == "" {
			fatal(fmt.Errorf("-sweep needs -profile-out"))
		}
		st := profile.Store{Dir: a.profileDir}
		for _, k := range sim.DistinctKernels(a.selected) {
			pr, err := profile.Sweep(a.cfg, k, opts)
			if err != nil {
				fatal(err)
			}
			if err := st.Save(tag, pr); err != nil {
				fatal(err)
			}
			fmt.Printf("swept %s: %d points -> %s\n", k.Name, len(pr.Points), a.profileDir)
		}
	}
}

// planFormat sniffs a -plan file's header so the shard and merge
// modes dispatch between profile sweep plans and experiment cell
// plans without a separate flag.
func planFormat(path string) string {
	format, err := gridplan.PlanFileFormat(path)
	if err != nil {
		fatal(err)
	}
	return format
}

// runCellShard executes one shard of an experiment-grid cell plan
// (emitted by poisebench -run <exp> -emit-plan) and writes the cells
// to -shard-out. The harness is rebuilt from this process's flags; the
// plan's configuration tag and workload digests must match it, so a
// worker launched with different flags than the coordinator fails
// before simulating anything.
func runCellShard(a sweepModeArgs, index, count int) {
	plan, err := gridplan.ReadCellPlanFile(a.planPath)
	if err != nil {
		fatal(err)
	}
	if len(plan.Cells) == 0 {
		fatal(fmt.Errorf("cell plan %s is empty", a.planPath))
	}
	sp, err := plan.Shard(index, count)
	if err != nil {
		fatal(err)
	}
	grid := plan.Cells[0].Grid
	h := a.harness()
	// Validate the whole plan, not just this shard: a worker launched
	// with mismatched flags must fail fast even if its own slice is
	// empty or misses the drifted workload.
	if err := h.ValidateCellPlan(grid, plan); err != nil {
		fatal(err)
	}
	cells, err := h.RunCellTasks(grid, sp.Cells)
	if err != nil {
		fatal(err)
	}
	if err := results.WriteShardFile(a.shardOut, index, count, cells); err != nil {
		fatal(err)
	}
	fmt.Printf("cell shard %d/%d: %d of %d cells of grid %s -> %s\n",
		index, count, len(cells), len(plan.Cells), grid, a.shardOut)
}

// mergeCellShards merges cell shard files against their plan and
// writes the merged entry into the -profile-out results store — the
// directory poisebench then loads as its -cache, so figures assemble
// from the sharded campaign without re-simulating.
func mergeCellShards(a sweepModeArgs, files []string) {
	plan, err := gridplan.ReadCellPlanFile(a.planPath)
	if err != nil {
		fatal(err)
	}
	if len(plan.Cells) == 0 {
		fatal(fmt.Errorf("cell plan %s is empty", a.planPath))
	}
	var shards [][]results.CellResult
	for _, f := range files {
		cells, err := results.ReadShardFile(f)
		if err != nil {
			fatal(err)
		}
		shards = append(shards, cells)
	}
	merged, err := results.Merge(shards...)
	if err != nil {
		fatal(err)
	}
	if err := results.Verify(plan, merged); err != nil {
		fatal(err)
	}
	tag, grid := plan.Cells[0].Tag, plan.Cells[0].Grid
	st := results.Store{Dir: a.profileDir}
	if err := st.Save(tag, grid, merged); err != nil {
		fatal(err)
	}
	fmt.Printf("merged %d cells of grid %s -> %s\n", len(merged), grid, a.profileDir)
}

// emitRefineRound computes the next pruned-sweep refinement round for
// the selected workloads from the round partials in -cache and writes
// it as an ordinary plan file, which the existing -shard workers
// execute unchanged. When every kernel's refinement has converged it
// instead assembles the final profiles into -profile-out (when given)
// and reports completion — the loop driver greps for that.
func emitRefineRound(a sweepModeArgs, tag string, opts profile.SweepOptions) {
	if a.cacheDir == "" {
		fatal(fmt.Errorf("-prune -emit-plan needs -cache for round partials"))
	}
	st := profile.Store{Dir: a.cacheDir}
	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	kernels := sim.DistinctKernels(a.selected)
	type state struct {
		kernel string
		prior  []gridplan.Measurement
	}
	var states []state
	for _, k := range kernels {
		rounds := st.LoadRounds(tag, k.Name)
		prior, err := gridplan.Merge(rounds...)
		if err != nil {
			fatal(fmt.Errorf("round partials for %s: %w", k.Name, err))
		}
		kp, done, err := profile.BuildRefinePlan(tag, a.cfg, k, opts, len(rounds), prior)
		if err != nil {
			fatal(err)
		}
		if !done {
			plan.Tasks = append(plan.Tasks, kp.Tasks...)
		}
		states = append(states, state{kernel: k.Name, prior: prior})
	}
	if len(plan.Tasks) > 0 {
		plan.Sort()
		if err := plan.Validate(); err != nil {
			fatal(err)
		}
		if err := gridplan.WritePlanFile(a.emitPlan, plan); err != nil {
			fatal(err)
		}
		fmt.Printf("refine round plan %s: %d tasks over %d kernels (tag %s)\n",
			a.emitPlan, len(plan.Tasks), len(kernels), tag)
		return
	}
	if a.profileDir != "" {
		out := profile.Store{Dir: a.profileDir}
		for _, s := range states {
			pr, err := profile.MergeShards(s.kernel, s.prior)
			if err != nil {
				fatal(err)
			}
			if err := out.Save(tag, pr); err != nil {
				fatal(err)
			}
			fmt.Printf("assembled %s: %d pruned points -> %s\n", s.kernel, len(pr.Points), a.profileDir)
		}
	}
	fmt.Println("refinement complete")
}

// mergeRefineRound folds shard measurement files of one refinement
// round back into per-kernel round partials in -cache, verifying full
// coverage against the round's plan, so the next emitRefineRound can
// derive the following round.
func mergeRefineRound(a sweepModeArgs) {
	if a.planPath == "" || a.cacheDir == "" {
		fatal(fmt.Errorf("-prune -merge-shards needs -plan and -cache"))
	}
	files, err := gridplan.SplitFiles(a.merge)
	if err != nil {
		fatal(fmt.Errorf("-merge-shards: %w", err))
	}
	st := profile.Store{Dir: a.cacheDir}
	for _, g := range verifiedShardGroups(a.planPath, files) {
		rounds := st.LoadRounds(g.Tag, g.Kernel)
		prior, err := gridplan.Merge(rounds...)
		if err != nil {
			fatal(fmt.Errorf("round partials for %s: %w", g.Kernel, err))
		}
		// Idempotence: a retried merge of an already-folded round must
		// not append the same measurements as a new round (that would
		// wedge every later emit on duplicate keys). Points partially
		// overlapping the cached rounds are a genuinely inconsistent
		// plan/cache mix and fail loudly instead.
		have := map[string]bool{}
		for _, m := range prior {
			have[m.Key()] = true
		}
		dup := 0
		for _, m := range g.ms {
			if have[m.Key()] {
				dup++
			}
		}
		switch {
		case dup == len(g.ms):
			fmt.Printf("round for %s already merged (%d points), skipping\n", g.Kernel, len(g.ms))
			continue
		case dup > 0:
			fatal(fmt.Errorf("%s: %d of %d points already in cached rounds — shard files do not match the current round (stale -plan?)",
				g.Kernel, dup, len(g.ms)))
		}
		round := len(rounds)
		if err := st.SaveRound(g.Tag, g.Kernel, round, g.ms); err != nil {
			fatal(err)
		}
		fmt.Printf("merged %s round %d: %d points -> %s\n", g.Kernel, round, len(g.ms), a.cacheDir)
	}
}

// shardGroup is one (tag, kernel)'s verified slice of a merged shard
// set.
type shardGroup struct {
	Tag, Kernel string
	ms          []gridplan.Measurement
}

// verifiedShardGroups reads a profile plan and its shard measurement
// files, merges the shards, verifies exact plan coverage (a lost or
// duplicated shard fails loudly), and returns the measurements
// grouped per (tag, kernel) in plan order — the shared front half of
// both the exhaustive -merge-shards path and the pruned round merge.
func verifiedShardGroups(planPath string, files []string) []shardGroup {
	plan, err := gridplan.ReadPlanFile(planPath)
	if err != nil {
		fatal(err)
	}
	var shards [][]gridplan.Measurement
	for _, f := range files {
		ms, err := gridplan.ReadMeasurementsFile(f)
		if err != nil {
			fatal(err)
		}
		shards = append(shards, ms)
	}
	merged, err := gridplan.Merge(shards...)
	if err != nil {
		fatal(err)
	}
	if err := plan.Verify(merged); err != nil {
		fatal(err)
	}
	var groups []shardGroup
	for _, g := range plan.Kernels() {
		var ms []gridplan.Measurement
		for _, m := range merged {
			if m.Tag == g.Tag && m.Kernel == g.Kernel {
				ms = append(ms, m)
			}
		}
		groups = append(groups, shardGroup{Tag: g.Tag, Kernel: g.Kernel, ms: ms})
	}
	return groups
}

// printBestTable derives the static policy table — the Static-Best,
// SWL-diagonal and Eq. 12 scored tuples with their profiled speedups —
// from every profile JSON in -profile-out. Pruned and exhaustive
// campaigns of the same grid must print byte-identical tables (CI
// diffs exactly that), because those tuples are all any experiment
// consumes from a profile. The derivation is profile.BestTable — the
// same function the serve layer's /table endpoint answers with, so the
// two surfaces cannot drift apart.
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
// name, so a shard worker resolves plan tasks regardless of its own
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
