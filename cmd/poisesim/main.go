// Command poisesim runs one or more workloads on the simulated GPU
// under a chosen warp-scheduling policy and prints the headline
// metrics.
//
// Usage:
//
//	poisesim -workload ii -policy fixed -n 8 -p 2 -sms 8 -size small
//	poisesim -workload ii,bfs,syr2k -parallel 3   # fan out across cores
//
// Policies: gto (baseline greedy-then-oldest, maximum warps) and
// fixed (pin the warp-tuple to -n/-p). The richer policies (swl, pcal,
// poise, ...) are exercised via cmd/poisebench, which also feeds them
// the profiles and trained models they need.
//
// A comma-separated -workload list fans the runs out across -parallel
// worker goroutines (0 = GOMAXPROCS); each run simulates on its own
// GPU, so results are identical at any worker count and print in the
// order given. -seed reseeds the workload generator reproducibly.
//
// Trace ingestion (package traceio):
//
//	poisesim -record traces -workload ii        # capture ii to traces/ii.ptrace.gz
//	poisesim -trace traces/ii.ptrace.gz -workload ii   # replay: identical metrics
//	poisesim -trace kernel.trace -list          # ingest + characterise
//
// -trace loads recorded workloads (poisetrace containers or simplified
// Accel-Sim kernel traces; a file or a directory of files) into the
// catalogue, shadowing same-named synthetic workloads so record/replay
// comparisons are a two-command affair. -list prints each workload's
// characterised locality signature (In, reuse distance R, per-warp
// footprint, intra/inter reuse split).
//
// {N, p} profile sweeps run the adaptive refinement: a coarse pass plus
// score-ranked neighbourhood expansion that simulates a fraction of the
// grid. The Static-Best, SWL and Eq. 12 scored tuples (and the score)
// are exactly the whole grid's; the other grid points are not carried.
//
//	poisesim -workload ii -sweep -profile-out profs
//	poisesim -best -profile-out profs     # the static policy table
//
// Splitting a campaign across processes or machines is the fleet
// service (package fleet): a live coordinator and long-lived workers
// over HTTP.
//
//	poisesim -workload ii -serve :9444 -cache rounds -profile-out profs   # coordinator
//	poisesim -worker http://host:9444                                     # any number
//
// serves the same refinement -sweep runs, one generation per round.
// Workers may join late, crash mid-lease (expiry requeues their tasks)
// or run slow (idle workers steal queued tasks from loaded ones); the
// merged output is byte-identical to the single-process run in every
// case. -cache means the same in both modes: completed rounds persist
// there and a later run resumes them.
//
// Worker flags must reproduce the coordinator's configuration (-sms,
// -size, -seed, -stepn/-stepp); the plan's kernel digests are verified
// first, so mismatches fail fast. poisesim serves and works sweep
// campaigns only; experiment-grid campaigns (workload x scheme cells)
// are poisebench's (-serve, -worker there).
//
// With -snapshot-dir a run that is preempted (SIGTERM, -ckpt-at-cycle)
// checkpoints there, and the same command line run again finds the
// checkpoint and continues from it, bit-identically.
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"poise"

	"poise/internal/config"
	"poise/internal/fleet"
	"poise/internal/profiling"
	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/trace"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

// The flags live at package level so that a test can count them.
var (
	workload = flag.String("workload", "ii", "comma-separated workload names (see -list)")
	policy   = flag.String("policy", "gto", "policy: gto | fixed | poise | apcm | ccws | random-restart")
	n        = flag.Int("n", 0, "fixed policy: vital warps N (0 = max)")
	p        = flag.Int("p", 0, "fixed policy: polluting warps p (0 = N)")
	sms      = flag.Int("sms", 8, "number of SMs (scaled memory system)")
	size     = flag.String("size", "small", "workload size: small | medium | large")
	list     = flag.Bool("list", false, "list workloads with their characterised signature and exit")
	l1x      = flag.Int("l1x", 1, "multiply L1 capacity (Pbest probes use 64)")
	parallel = flag.Int("parallel", 0, "worker goroutines for multi-workload runs (0 = GOMAXPROCS)")
	seed     = flag.Int64("seed", 0, "workload seed (perturbs iteration jitter; 0 = canonical)")
	tracePth = flag.String("trace", "", "load trace workloads (a .ptrace/.ptrace.gz/.trace file or a directory) into the catalogue")
	record   = flag.String("record", "", "record each selected workload to this directory as <name>.ptrace.gz before running")

	// {N,p} sweeps: the refinement, in process or served to a fleet.
	profDir  = flag.String("profile-out", "", "profile directory -sweep and -serve write to and -best reads")
	sweepRun = flag.Bool("sweep", false, "run the refined {N,p} sweep of the selected workloads in this process and save profiles under -profile-out")
	bestRun  = flag.Bool("best", false, "print the static policy table (Static-Best/SWL/scored tuples) derived from the profiles in -profile-out and exit")
	stepN    = flag.Int("stepn", 2, "sweep grid N step for -sweep and -serve")
	stepP    = flag.Int("stepp", 2, "sweep grid p step for -sweep and -serve")
	cacheDir = flag.String("cache", "", "-sweep/-serve: where completed refinement rounds persist, so an interrupted sweep or campaign resumes ('' = nowhere)")

	// Fleet coordinator/worker service (package fleet): serve the
	// refinement over HTTP, pull leases from long-lived workers, merge
	// streamed results; survives worker crashes (lease expiry) and
	// rebalances loaded workers (stealing) with byte-identical merged
	// output.
	fleetMode = fleet.RegisterFlags(flag.CommandLine, "the refinement of the selected workloads to -worker processes, and save merged output under -profile-out")
	dieAfter  = flag.Int("die-after", 0, "-worker: exit mid-lease after completing this many tasks (chaos/CI hook; with -snapshot-dir the death is checkpointed so another worker resumes it; 0 = never)")
	taskDelay = flag.Duration("task-delay", 0, "-worker: sleep this long before each task (chaos/CI hook to provoke stealing)")

	// Mid-run snapshots (package snap): checkpoint preempted runs
	// (SIGTERM, -ckpt-at-cycle, checkpointed -die-after) so a later
	// process resumes them bit-identically instead of restarting.
	snapDir = flag.String("snapshot-dir", "", "snapshot directory: preempted runs/sweep tasks checkpoint here, and every run probes it first and resumes what it finds, so any process pointed at the same directory continues the work, bit-identically ('' = off)")
	ckptAt  = flag.Int64("ckpt-at-cycle", 0, "deterministically preempt + checkpoint each in-flight run at this simulated cycle (CI/chaos hook; needs -snapshot-dir)")

	cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

func main() {
	flag.Parse()
	if err := validateFlags(*sms, *ckptAt, *snapDir); err != nil {
		fatal(err)
	}

	stopProf, err := profiling.Start(profiling.Flags{CPUProfile: *cpuProf, MemProfile: *memProf})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "poisesim:", err)
		}
	}()

	workloadSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			workloadSet = true
		}
	})

	cat := workloads.NewCatalogueSeeded(parseSize(*size), *seed)
	if *tracePth != "" {
		ws, err := traceio.LoadWorkloads(*tracePth)
		if err != nil {
			fatal(err)
		}
		for _, w := range ws {
			cat.Put(w)
		}
		if !workloadSet && len(ws) > 0 {
			// Bare -trace runs default to the ingested workloads; an
			// explicit -workload (even "ii") always wins.
			names := make([]string, len(ws))
			for i, w := range ws {
				names[i] = w.Name
			}
			*workload = strings.Join(names, ",")
		}
	}
	if *list {
		listSignatures(cat)
		return
	}
	var names []string
	for _, name := range strings.Split(*workload, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no workloads given (see -list for names)"))
	}
	ws := make([]*sim.Workload, len(names))
	for i, name := range names {
		w, err := cat.Get(name)
		if err != nil {
			fatal(err)
		}
		ws[i] = w
	}

	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fatal(err)
		}
		for _, w := range ws {
			tr, err := traceio.Record(w)
			if err != nil {
				fatal(err)
			}
			path := filepath.Join(*record, w.Name+".ptrace.gz")
			if err := traceio.WriteFile(path, tr); err != nil {
				fatal(err)
			}
			fmt.Printf("recorded %s (%d kernels) -> %s\n", w.Name, len(tr.Kernels), path)
		}
	}

	cfg := config.Default().Scale(*sms)
	if *l1x > 1 {
		cfg.L1.SizeBytes *= *l1x
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -snapshot-dir arms the preemption path: SIGTERM (or the
	// deterministic -ckpt-at-cycle hook) interrupts in-flight
	// simulations at a safe point and checkpoints them to the store, so
	// a later process — this machine or another pointed at the same
	// directory — resumes bit-identically instead of restarting.
	var (
		ckpts *snap.Store
		ictl  *sim.InterruptCtl
	)
	if *snapDir != "" {
		st, err := snap.NewStore(*snapDir)
		if err != nil {
			fatal(err)
		}
		ckpts = st
		ictl = &sim.InterruptCtl{AtCycle: *ckptAt}
		go func() { <-ctx.Done(); ictl.Trigger() }()
	}

	if fleetMode.Enabled() || *sweepRun || *bestRun {
		a := sweepModeArgs{
			cfg: cfg, cat: cat, selected: ws, ctx: ctx, profileDir: *profDir,
			sweep: *sweepRun, best: *bestRun, cacheDir: *cacheDir,
			stepN: *stepN, stepP: *stepP, workers: *parallel, seed: *seed,
			snapDir: *snapDir, ckpts: ckpts, ictl: ictl,
		}
		if !fleetMode.Enabled() {
			runSweepMode(a)
			return
		}
		runFleetMode(a, fleetFlags{
			Flags:    *fleetMode,
			dieAfter: *dieAfter, taskDelay: *taskDelay,
			cacheDir: *cacheDir, profileDir: *profDir, sweep: *sweepRun, best: *bestRun,
		})
		return
	}

	// Each run needs its own policy instance (the adaptive policies are
	// stateful), derived deterministically from the run's index.
	newPolicy := func(i int) (sim.Policy, error) {
		switch *policy {
		case "gto":
			return sim.GTO{}, nil
		case "fixed":
			return sim.Fixed{N: *n, P: *p}, nil
		case "poise", "apcm", "ccws", "random-restart":
			// Seed family matches the harness convention (see Fig15):
			// base seed + run index + 1, so -seed 0 on a single
			// workload reproduces the canonical stochastic-policy seed.
			return poise.NewPolicy(poise.PolicySpec{
				Name: *policy,
				Seed: *seed + int64(i) + 1,
			})
		default:
			return nil, fmt.Errorf("unknown policy %q", *policy)
		}
	}
	if _, err := newPolicy(0); err != nil {
		fatal(err)
	}

	runWorkload := func(i int, w *sim.Workload) (sim.WorkloadResult, error) {
		job := sim.Job{Workload: w, Policy: func() (sim.Policy, error) { return newPolicy(i) }}
		if ckpts != nil {
			flags := fmt.Sprintf("%s|%s|sms%d|l1x%d|seed%d|n%d|p%d", *policy, *size, *sms, *l1x, *seed, *n, *p)
			job.Opts.Interrupt, job.Store, job.Key = ictl, ckpts, runKey(w, flags)
		}
		res, _, err := sim.Drive(cfg, job)
		return res, err
	}

	type run struct {
		res     sim.WorkloadResult
		elapsed time.Duration
	}
	start := time.Now()
	results, err := runner.MapSlice(ctx, *parallel, ws,
		func(_ context.Context, i int, w *sim.Workload) (run, error) {
			t0 := time.Now()
			res, err := runWorkload(i, w)
			if err != nil {
				return run{}, err
			}
			return run{res: res, elapsed: time.Since(t0)}, nil
		})
	if err != nil {
		if ckpts != nil && (errors.Is(err, sim.ErrInterrupted) || errors.Is(err, context.Canceled)) {
			fmt.Printf("preempted: checkpoints saved under %s; rerun with -snapshot-dir %s to continue\n",
				*snapDir, *snapDir)
			return
		}
		fatal(err)
	}
	wall := time.Since(start)

	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		printResult(r.res, r.elapsed)
	}
	if len(results) > 1 {
		var serial time.Duration
		for _, r := range results {
			serial += r.elapsed
		}
		workers := runner.NumWorkers(*parallel)
		if workers > len(results) {
			workers = len(results)
		}
		fmt.Printf("\n%d workloads on %d workers: %v wall (%v of simulation)\n",
			len(results), workers,
			wall.Round(time.Millisecond), serial.Round(time.Millisecond))
	}
}

// runKey names run w's checkpoint in -snapshot-dir by everything that
// shapes its state: the flags that do, joined, and a digest over the
// contents of every kernel of w, so that a resume never splices
// checkpoints across configurations, nor across two workloads of one
// name (a -trace workload over the catalogue entry it shadows, a
// workload edited between two builds).
func runKey(w *sim.Workload, flags string) string {
	h := sha256.New()
	for _, k := range w.Kernels {
		io.WriteString(h, trace.KernelDigest(k))
	}
	return fmt.Sprintf("poisesim|%s|%s|%x", w.Name, flags, h.Sum(nil))
}

// listSignatures prints every workload with its characterised
// locality signature: the trace-derived In, per-warp footprint, reuse
// distance R and intra/inter reuse split (paper Fig. 4 vocabulary).
func listSignatures(cat *workloads.Catalogue) {
	fmt.Printf("%-12s %7s %8s %10s %8s %7s %7s\n",
		"workload", "kernels", "In", "footprint", "R", "intra%", "inter%")
	for _, name := range cat.Names() {
		w, err := cat.Get(name)
		if err != nil {
			fatal(err)
		}
		// A capped recording keeps the listing interactive at -size
		// large (full streams are only needed for bit-exact replay).
		tr, err := traceio.RecordWith(w, traceio.RecordOptions{MaxWarpIters: 2048})
		if err != nil {
			fatal(fmt.Errorf("characterising %s: %w", name, err))
		}
		sig, err := traceio.Characterise(tr, traceio.CharacteriseOptions{})
		if err != nil {
			fatal(fmt.Errorf("characterising %s: %w", name, err))
		}
		fmt.Printf("%-12s %7d %8.2f %10.1f %8.1f %7.1f %7.1f\n",
			name, sig.Kernels, sig.In, sig.FootprintLines, sig.ReuseDist,
			sig.IntraPct, sig.InterPct)
	}
}

func printResult(res sim.WorkloadResult, elapsed time.Duration) {
	fmt.Printf("workload        %s (%d kernels)\n", res.Workload, len(res.PerKernel))
	fmt.Printf("policy          %s\n", res.Policy)
	fmt.Printf("cycles          %d\n", res.Cycles)
	fmt.Printf("instructions    %d\n", res.Instructions)
	fmt.Printf("IPC             %.4f\n", res.IPC)
	fmt.Printf("L1 hit rate     %.2f%%  (intra %.2f%% / inter %.2f%% of accesses)\n",
		100*res.L1.HitRate(), 100*res.L1.IntraWarpHitRate(),
		100*float64(res.L1.InterWarpHits)/max1(float64(res.L1.Accesses)))
	fmt.Printf("AML             %.1f cycles\n", res.AML)
	fmt.Printf("L2 accesses     %d (hit rate %.2f%%)\n", res.L2Acc,
		100*float64(res.L2Hits)/max1(float64(res.L2Acc)))
	fmt.Printf("DRAM accesses   %d\n", res.DRAMAcc)
	fmt.Printf("sim wall time   %v\n", elapsed.Round(time.Millisecond))
}

// validateFlags rejects what no mode can run with, before anything is
// listed, recorded or simulated: an SM count config.Scale would not
// honour (it returns the 32-SM baseline for one), and a checkpoint
// cycle with nowhere to checkpoint to.
func validateFlags(sms int, ckptAt int64, snapDir string) error {
	if err := config.Default().CheckScale(sms); err != nil {
		return fmt.Errorf("-sms: %w", err)
	}
	if ckptAt > 0 && snapDir == "" {
		return fmt.Errorf("-ckpt-at-cycle needs -snapshot-dir for the checkpoint")
	}
	return nil
}

func parseSize(s string) workloads.Size {
	switch strings.ToLower(s) {
	case "small":
		return workloads.Small
	case "medium":
		return workloads.Medium
	case "large":
		return workloads.Large
	default:
		fatal(fmt.Errorf("unknown size %q", s))
		return workloads.Small
	}
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "poisesim:", err)
	os.Exit(1)
}
