// Command poisebench regenerates the paper's evaluation: every figure
// and table of §VII, printed as aligned text tables and ASCII solution-
// space plots.
//
// Usage:
//
//	poisebench -run all                # everything (minutes)
//	poisebench -run fig7,fig8,fig9    # the headline comparison
//	poisebench -run tableiii          # Pbest classification
//	poisebench -parallel 4 -run fig7  # bound the worker pool
//
// Experiments fan out across -parallel worker goroutines (default:
// GOMAXPROCS); every table is bit-identical at any worker count, and
// -seed reseeds the whole suite reproducibly. Profiles are cached
// under -cache; delete the directory to force fresh sweeps.
//
// -trace ingests recorded workloads (poisetrace containers or
// simplified Accel-Sim kernel traces; a file or directory) and
// appends them to the evaluation set, so profile sweeps and the
// figure/table experiments run over real traces unchanged.
//
// Profile sweeps run the adaptive refinement: a fraction of each {N,p}
// grid is simulated while the Static-Best, SWL and Eq. 12 scored tuples
// — all any table reads — are exactly the whole grid's; the other grid
// points are not carried. Fig. 2 and Fig. 17, which draw the whole
// space, sweep their one kernel exhaustively. The run ends with the
// books: `[sweeps: S of G grid points, R rounds, K kernels escalated to
// the full grid]`.
//
// Splitting a campaign across processes is the fleet service — one
// coordinator (-serve), any number of long-lived workers (-worker),
// crash recovery via lease expiry, work stealing for stragglers, and
// merged results landing directly in -cache. -run all serves the
// profile sweeps' refinement, -run naming one grid-backed experiment
// serves that experiment's workload x scheme cell grid:
//
//	poisebench -run fig7 -cache c -serve :9444     # coordinator
//	poisebench -worker http://host:9444 -cache c   # terminal 2..N
//	poisebench -run fig7 -cache c                  # loads merged cells
//
// Merging any split is reflect.DeepEqual-identical to the in-process
// run, so the final tables are byte-identical to an unsplit run with
// the cache disabled.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/fleet"
	"poise/internal/profiling"
	"poise/internal/sim"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

// runners is the table of experiments, in -run all order. grid names
// the experiment grid an experiment assembles its figure from, the
// campaign -serve spreads for it ("" for the ones without a grid).
var runners = []struct {
	name string
	desc string
	grid string
	run  func(*experiments.Harness) error
}{
	{"tableiii", "Table IIIa: Pbest per workload (64x L1 speedup)", "pbest", runTableIII},
	{"fig2", "Fig. 2: {N,p} solution space of an ii kernel; CCWS/PCAL/MAX", "", runFig2},
	{"fig4", "Fig. 4: L1 hit-rate split and reuse distance", "", runFig4},
	{"fig5", "Fig. 5: scoring performance peaks (Eq. 12)", "", runFig5},
	{"tableii", "Table II: trained feature weights + offline error", "", runTableII},
	{"fig7", "Fig. 7-10, 14: performance, hit rate, AML, displacement, energy", "scheme", runPerf},
	{"fig11", "Fig. 11: local-search stride sensitivity", "stride", ratios((*experiments.Harness).Fig11, nil)},
	{"fig12", "Fig. 12: L1 cache-size sensitivity", "cachesize", ratios((*experiments.Harness).Fig12, nil)},
	{"fig13", "Fig. 13: feature-ablation sensitivity", "ablation", ratios((*experiments.Harness).Fig13, nil)},
	{"fig15", "Fig. 15: APCM and random-restart comparison", "alternatives", ratios((*experiments.Harness).Fig15, nil)},
	{"fig16", "Fig. 16: compute-intensive workloads", "compute", ratios((*experiments.Harness).Fig16, fig16Overhead)},
	{"fig17", "Fig. 17: bfs case study", "", runFig17},
	{"cost", "Sec. VII-I: hardware cost accounting", "", runCost},
}

// The flags live at package level so that a test can count them.
var (
	run      = flag.String("run", "all", "comma-separated experiment list or 'all' (see -listexp)")
	sms      = flag.Int("sms", 8, "number of SMs (scaled memory system)")
	size     = flag.String("size", "small", "workload size: small | medium | large")
	cacheDir = flag.String("cache", ".poise-cache", "profile cache directory ('' disables)")
	seeds    = flag.Int("seeds", 3, "random-restart seeds (paper uses 20)")
	parallel = flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
	seed     = flag.Int64("seed", 0, "experiment seed (perturbs workload jitter and random-restart; 0 = canonical)")
	listExp  = flag.Bool("listexp", false, "list experiments and exit")
	tracePth = flag.String("trace", "", "ingest trace workloads (a .ptrace/.ptrace.gz/.trace file or a directory) into the evaluation set")

	// Fleet coordinator/worker service (package fleet): the same
	// campaigns over HTTP, with crash recovery and work stealing.
	fleetMode = fleet.RegisterFlags(flag.CommandLine, "-run's campaign (the profile sweeps' refinement rounds, or one experiment grid) and merging results into -cache")

	cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

func main() {
	flag.Parse()
	if err := validateFlags(*sms); err != nil {
		fmt.Fprintln(os.Stderr, "poisebench:", err)
		os.Exit(1)
	}

	stopProf, err := profiling.Start(profiling.Flags{CPUProfile: *cpuProf, MemProfile: *memProf})
	if err != nil {
		fmt.Fprintln(os.Stderr, "poisebench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "poisebench:", err)
		}
	}()

	if *listExp {
		for _, r := range runners {
			fmt.Printf("%-9s %s\n", r.name, r.desc)
		}
		return
	}

	var extra []*sim.Workload
	if *tracePth != "" {
		ws, err := traceio.LoadWorkloads(*tracePth)
		if err != nil {
			fmt.Fprintln(os.Stderr, "poisebench:", err)
			os.Exit(1)
		}
		extra = ws
		for _, w := range ws {
			fmt.Printf("ingested trace workload %s (%d kernels)\n", w.Name, len(w.Kernels))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sz, err := workloads.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "poisebench:", err)
		os.Exit(1)
	}
	opt := experiments.Options{
		SMs:            *sms,
		Size:           sz,
		CacheDir:       *cacheDir,
		RandomSeeds:    *seeds,
		Workers:        *parallel,
		Seed:           *seed,
		Ctx:            ctx,
		ExtraWorkloads: extra,
	}
	h := experiments.NewHarness(opt)

	if fleetMode.Enabled() {
		err := runFleetMode(ctx, h, benchFleetFlags{Flags: *fleetMode, run: *run, cacheDir: *cacheDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "poisebench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("running on %d workers (seed %d)\n", h.Workers(), *seed)

	want := map[string]bool{}
	all := *run == "all"
	for _, n := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(n))] = true
	}
	ran := 0
	for _, r := range runners {
		if !all && !want[r.name] {
			continue
		}
		fmt.Printf("\n===== %s =====\n", r.desc)
		start := time.Now()
		if err := r.run(h); err != nil {
			fmt.Fprintf(os.Stderr, "poisebench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s in %v]\n", r.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "poisebench: no experiment matched %q (see -listexp)\n", *run)
		os.Exit(1)
	}
	// Bracketed like the timing lines: reuse depends on what the cache
	// directories already held, so output comparisons filter it out.
	m := h.RunMemo()
	fmt.Printf("[run memo: %d reused, %d simulated, %d cycles not re-simulated]\n",
		m.Reused.Load(), m.Simulated.Load(), m.CyclesSaved.Load())
	st, escalated := h.SweepBooks()
	fmt.Printf("[sweeps: %d of %d grid points, %d rounds, %d kernels escalated to the full grid]\n",
		st.Simulated, st.GridPoints, st.Rounds, escalated)
}

// validateFlags rejects what no experiment can run with, before
// anything is read or simulated: an SM count config.Scale would not
// honour (the harness would turn 0 into 8, and 64 into 32).
func validateFlags(sms int) error {
	if err := config.Default().CheckScale(sms); err != nil {
		return fmt.Errorf("-sms: %w", err)
	}
	return nil
}

func runTableIII(h *experiments.Harness) error {
	rows, err := h.TableIII()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: []string{"workload", "kernels", "Pbest", "memory-sensitive"}}
	for _, r := range rows {
		t.Add(r.Workload, fmt.Sprint(r.Kernels), fmt.Sprintf("%.2fx", r.Pbest),
			fmt.Sprint(r.MemorySensitive))
	}
	t.Render(os.Stdout)
	return nil
}

func runFig2(h *experiments.Harness) error {
	sp, err := h.Fig2()
	if err != nil {
		return err
	}
	experiments.RenderSpace(os.Stdout, sp.Profile, map[string][2]int{
		"C": {sp.CCWS.N, sp.CCWS.P},
		"L": {sp.PCAL.N, sp.PCAL.P},
		"M": {sp.Max.N, sp.Max.P},
	})
	fmt.Printf("CCWS  (%2d,%2d) %.3fx\nPCAL  (%2d,%2d) %.3fx\nMAX   (%2d,%2d) %.3fx\n",
		sp.CCWS.N, sp.CCWS.P, sp.CCWS.Speedup,
		sp.PCAL.N, sp.PCAL.P, sp.PCAL.Speedup,
		sp.Max.N, sp.Max.P, sp.Max.Speedup)
	t := &experiments.Table{Header: []string{"N", "speedup p=N", "speedup p=1"}}
	p1 := map[int]float64{}
	for i, n := range sp.P1N {
		p1[n] = sp.P1[i]
	}
	for i, n := range sp.DiagonalN {
		cell := "-"
		if v, ok := p1[n]; ok {
			cell = fmt.Sprintf("%.3f", v)
		}
		t.Add(fmt.Sprint(n), fmt.Sprintf("%.3f", sp.Diagonal[i]), cell)
	}
	t.Render(os.Stdout)
	return nil
}

func runFig4(h *experiments.Harness) error {
	rows, err := h.Fig4()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: []string{"workload", "hp", "hnp", "ho", "intra%", "inter%", "R"}}
	for _, r := range rows {
		t.Add(r.Workload,
			fmt.Sprintf("%.3f", r.Hp), fmt.Sprintf("%.3f", r.Hnp), fmt.Sprintf("%.3f", r.Ho),
			fmt.Sprintf("%.1f", r.IntraPct), fmt.Sprintf("%.1f", r.InterPct),
			fmt.Sprintf("%.0f", r.ReuseDist))
	}
	t.Render(os.Stdout)
	return nil
}

func runFig5(h *experiments.Harness) error {
	rows, err := h.Fig5()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: []string{"kernel", "max-perf", "speedup", "max-score", "speedup@score"}}
	for _, r := range rows {
		t.Add(r.Kernel,
			fmt.Sprintf("(%d,%d)", r.MaxPerf.N, r.MaxPerf.P),
			fmt.Sprintf("%.3fx", r.MaxPerf.Speedup),
			fmt.Sprintf("(%d,%d)", r.MaxScore.N, r.MaxScore.P),
			fmt.Sprintf("%.3fx", r.PerfAtMaxScore))
	}
	t.Render(os.Stdout)
	return nil
}

func runTableII(h *experiments.Harness) error {
	res, err := h.TableII()
	if err != nil {
		return err
	}
	experiments.RenderWeights(os.Stdout, res.Weights)
	fmt.Printf("admitted %d kernels (rejected: %d speedup, %d cycles, %d hitrate)\n",
		res.Admitted, res.RejSpeedup, res.RejCycles, res.RejHitRate)
	fmt.Printf("offline prediction error on unseen kernels: N %.1f%% (paper: %.0f%%), p %.1f%% (paper: %.0f%%)\n",
		100*res.ErrN, experiments.Paper.OfflineErrN, 100*res.ErrP, experiments.Paper.OfflineErrP)
	return nil
}

func runPerf(h *experiments.Harness) error {
	sum, err := h.Performance()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: append([]string{"workload"}, experiments.SchemeNames...)}
	for _, r := range sum.Rows {
		t.AddF(r.Workload, 3, r.Speedup...)
	}
	t.AddF("H-Mean", 3, sum.HMeanSpeedup...)
	fmt.Println("Fig. 7 — IPC normalised to GTO:")
	t.Render(os.Stdout)

	t = &experiments.Table{Header: append([]string{"workload"}, experiments.SchemeNames...)}
	for _, r := range sum.Rows {
		row := make([]float64, len(r.HitRate))
		for i, v := range r.HitRate {
			row[i] = 100 * v
		}
		t.AddF(r.Workload, 1, row...)
	}
	means := make([]float64, len(sum.AMeanHitRate))
	for i, v := range sum.AMeanHitRate {
		means[i] = 100 * v
	}
	t.AddF("A-Mean", 1, means...)
	fmt.Println("\nFig. 8 — L1 hit rate (%):")
	t.Render(os.Stdout)

	t = &experiments.Table{Header: append([]string{"workload"}, experiments.SchemeNames...)}
	for _, r := range sum.Rows {
		t.AddF(r.Workload, 3, r.AML...)
	}
	t.AddF("A-Mean", 3, sum.AMeanAML...)
	fmt.Println("\nFig. 9 — AML normalised to GTO:")
	t.Render(os.Stdout)

	t = &experiments.Table{Header: []string{"workload", "N-axis", "p-axis", "euclidean"}}
	for _, r := range sum.Rows {
		t.AddF(r.Workload, 2, r.DispN, r.DispP, r.DispE)
	}
	t.AddF("A-Mean", 2, sum.MeanDispN, sum.MeanDispP, sum.MeanDispE)
	fmt.Println("\nFig. 10 — displacement between predicted and converged tuples:")
	t.Render(os.Stdout)

	t = &experiments.Table{Header: []string{"workload", "GTO mJ", "Poise mJ", "Poise/GTO"}}
	for _, r := range sum.Rows {
		t.AddF(r.Workload, 3, r.EnergyGTO, r.EnergyPoise, ratioOr0(r.EnergyPoise, r.EnergyGTO))
	}
	fmt.Println("\nFig. 14 — energy consumption:")
	t.Render(os.Stdout)
	fmt.Printf("mean Poise/GTO energy: %.3f (paper: %.3f)\n", sum.MeanEnergyRatio, experiments.Paper.EnergyRatio)
	return nil
}

// ratios prints a ratio figure: a row per workload and the H-Mean row,
// or, given a summary, the summary's line in the H-Mean row's place.
func ratios(fig func(*experiments.Harness) (*experiments.RatioTable, error), summary func(*experiments.RatioTable)) func(*experiments.Harness) error {
	return func(h *experiments.Harness) error {
		res, err := fig(h)
		if err != nil {
			return err
		}
		t := &experiments.Table{Header: append([]string{"workload"}, res.Columns...)}
		for i, w := range res.Workloads {
			t.AddF(w, 3, res.Ratio[i]...)
		}
		if summary == nil {
			t.AddF("H-Mean", 3, res.HMean...)
		}
		t.Render(os.Stdout)
		if summary != nil {
			summary(res)
		}
		return nil
	}
}

// fig16Overhead is Fig. 16's summary: Poise's H-mean over GTO, the
// figure's first column, against the paper's.
func fig16Overhead(res *experiments.RatioTable) {
	fmt.Printf("H-Mean Poise vs GTO: %.3f (paper: %.3f, i.e. %.1f%% overhead)\n", res.HMean[0],
		experiments.Paper.ComputeHMean, 100*(1-experiments.Paper.ComputeHMean))
}

func runFig17(h *experiments.Harness) error {
	res, err := h.Fig17()
	if err != nil {
		return err
	}
	fmt.Println("Fig. 17a — static profile of bfs:")
	experiments.RenderSpace(os.Stdout, res.Profile, map[string][2]int{
		"M": {res.Profile.Best().N, res.Profile.Best().P},
	})
	fmt.Println("\nFig. 17b — Poise runtime tuples on bfs:")
	experiments.RenderTuples(os.Stdout, res.Predicted, res.Converged, res.Profile.MaxN)
	fmt.Printf("%d predictions, %d converged tuples\n", len(res.Predicted), len(res.Converged))
	return nil
}

func runCost(h *experiments.Harness) error {
	c := h.Cost()
	fmt.Printf("performance counters: %d B/SM\n", c.CounterBytes)
	fmt.Printf("HIE FSM state:        %d B/SM\n", c.FSMBytes)
	fmt.Printf("vital bits:           %d b/SM\n", c.VitalBits)
	fmt.Printf("pollute bits:         %d b/SM\n", c.PolluteBits)
	fmt.Printf("total per SM:         %.2f B (paper: %.2f B)\n", c.TotalPerSM, experiments.Paper.CostPerSM)
	fmt.Printf("total chip (%d SMs):  %.0f B (paper: %.0f B at %d SMs)\n", c.SMs, c.TotalChipBytes,
		experiments.Paper.CostChip, experiments.Paper.CostChipSMs)
	fmt.Printf("weights via constant memory: %d B\n", c.WeightBytes)
	return nil
}

// gridOfRun maps -run to the campaign -serve covers: "" for "all" (the
// profile sweeps), or the cell grid of the one grid-backed experiment
// it names.
func gridOfRun(run string) (string, error) {
	run = strings.TrimSpace(strings.ToLower(run))
	if run == "all" {
		return "", nil
	}
	if strings.Contains(run, ",") {
		return "", fmt.Errorf("-serve takes a single experiment in -run, got %q", run)
	}
	var gridded []string
	for _, r := range runners {
		if r.name == run && r.grid != "" {
			return r.grid, nil
		}
		if r.grid != "" {
			gridded = append(gridded, r.name)
		}
	}
	return "", fmt.Errorf("experiment %q is not grid-backed; use -run all for profile sweeps, or one of: %s",
		run, strings.Join(gridded, ", "))
}

func ratioOr0(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}
