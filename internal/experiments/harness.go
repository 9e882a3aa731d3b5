// Package experiments reproduces every table and figure of the paper's
// evaluation (§VII). Each experiment is a method on Harness returning
// structured rows, so the same code backs the poisebench command, the
// top-level testing.B benchmarks and EXPERIMENTS.md.
//
// Experiments run on a scaled GPU (default 8 SMs with a proportionally
// scaled memory system, see config.Config.Scale) and the Small workload
// size; both are configurable. Offline {N, p} sweeps are cached on disk
// by sweep configuration and kernel content, because SWL, PCAL-SWL,
// Static-Best and the training pipeline all consume them.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// Options configures a Harness.
type Options struct {
	SMs      int            // simulated SM count (default 8)
	Size     workloads.Size // workload scale (default Small)
	CacheDir string         // profile cache directory ("" = no cache)

	// Sweep grids: evaluation profiles need enough resolution for
	// Static-Best; training profiles can be coarser.
	EvalStepN, EvalStepP   int
	TrainStepN, TrainStepP int

	// Seeds for the random-restart policy (paper averages 20 runs).
	RandomSeeds int

	// Weights overrides the embedded default model (nil = use
	// DefaultWeights).
	Weights *poise.Weights

	// Workers bounds the goroutines the harness fans simulations out
	// across (<= 0 means GOMAXPROCS, 1 forces sequential execution).
	// Every experiment is bit-identical at any worker count: tasks
	// share no mutable state and results aggregate in grid order.
	Workers int

	// Seed perturbs the workload catalogue's iteration-jitter streams
	// and offsets the random-restart seeds; 0 is the canonical
	// configuration. Runs with the same seed are reproducible
	// regardless of Workers.
	Seed int64

	// Ctx cancels in-flight experiment grids (nil = Background).
	Ctx context.Context

	// EvalSubset restricts EvalWorkloads to these names (paper order is
	// kept for names in the evaluation set). Empty means the full set.
	// Meant for tests and quick interactive runs.
	EvalSubset []string

	// Deprecated: SnapshotDir is ignored; the run memo keeps its results
	// in memory only. It goes once nothing names it.
	SnapshotDir string

	// ExtraWorkloads registers additional workloads — typically
	// trace-backed ones from package traceio — in the catalogue. A name
	// colliding with a synthetic workload shadows it (the record/replay
	// comparison case); genuinely new names are appended to the
	// evaluation set, so profile sweeps, tables and figures run over
	// ingested traces unchanged.
	ExtraWorkloads []*sim.Workload
}

func (o Options) withDefaults() Options {
	if o.SMs <= 0 {
		o.SMs = 8
	}
	if o.EvalStepN <= 0 {
		o.EvalStepN = 2
	}
	if o.EvalStepP <= 0 {
		o.EvalStepP = 2
	}
	if o.TrainStepN <= 0 {
		o.TrainStepN = 3
	}
	if o.TrainStepP <= 0 {
		o.TrainStepP = 3
	}
	if o.RandomSeeds <= 0 {
		o.RandomSeeds = 3
	}
	return o
}

// profileKey names a profile the harness holds.
type profileKey struct {
	kernel  string
	refined bool
}

// Harness owns the shared state of the experiment suite. All methods
// are safe for concurrent use: profiles and the training dataset are
// built at most once behind single-flight caches.
type Harness struct {
	Opt    Options
	Cfg    config.Config
	Params config.PoiseParams
	Cat    *workloads.Catalogue

	store     profile.Store
	cellStore results.Store
	// profiles holds every evaluation-grid profile loaded or swept so
	// far, the refined and the whole-grid one of a kernel apart, under
	// sweeping: of concurrent askers (each scheme cell is one) the first
	// sweeps, the others wait.
	sweeping sync.Mutex
	profiles map[profileKey]*profile.Profile
	dataset  runner.Once[*poise.Dataset]
	// cells memoises executed experiment grids per grid name; ablated
	// memoises the Fig. 13 retrained models per dropped feature.
	cells   runner.Cache[string, []results.CellResult]
	ablated runner.Cache[int, poise.Weights]
	// memo answers tuple-pinned runs this harness already did — sweep
	// points and grid cells alike — from memory.
	memo *sim.RunMemo
	// books adds up what the refined sweeps simulated and escalated how
	// many of them ended up covering their whole grid (under sweeping).
	books     profile.RefineStats
	escalated int

	// exhaustive makes every sweep cover its whole grid, under the
	// whole-grid cache keys. Only tests set it: it is the oracle the
	// tuple-exactness suites compare the harness against.
	exhaustive bool
}

// NewHarness builds a harness.
func NewHarness(opt Options) *Harness {
	opt = opt.withDefaults()
	cat := workloads.NewCatalogueSeeded(opt.Size, opt.Seed)
	for _, w := range opt.ExtraWorkloads {
		cat.Put(w)
	}
	return &Harness{
		Opt:       opt,
		Cfg:       config.Default().Scale(opt.SMs),
		Params:    config.DefaultPoise(),
		Cat:       cat,
		store:     profile.Store{Dir: opt.CacheDir},
		cellStore: results.Store{Dir: opt.CacheDir},
		profiles:  map[profileKey]*profile.Profile{},
		memo:      sim.NewRunMemo(),
	}
}

// RunMemo returns the harness's run memo.
func (h *Harness) RunMemo() *sim.RunMemo { return h.memo }

// SweepBooks returns what the harness's refined sweeps simulated so
// far, summed over kernels, and how many of them ended up covering
// their whole grid. Profiles loaded from the cache add nothing.
func (h *Harness) SweepBooks() (profile.RefineStats, int) {
	h.sweeping.Lock()
	defer h.sweeping.Unlock()
	return h.books, h.escalated
}

// ctx returns the harness's cancellation context.
func (h *Harness) ctx() context.Context {
	if h.Opt.Ctx != nil {
		return h.Opt.Ctx
	}
	return context.Background()
}

// Workers returns the effective worker count of the harness's
// execution engine.
func (h *Harness) Workers() int { return runner.NumWorkers(h.Opt.Workers) }

// sweepOptions assembles the profile sweep options for the eval or
// train grid, threading the worker pool and cancellation through.
// Evaluation sweeps refine (profile.Refinement): a coarse pass plus
// score-ranked neighbourhood expansion simulates a fraction of the grid
// and selects the Best / BestDiagonal / BestScore tuples the whole grid
// would, which is all the tables read. Training sweeps cover the whole
// grid (poise.BuildDataset says why).
func (h *Harness) sweepOptions(train bool) profile.SweepOptions {
	o := profile.SweepOptions{
		StepN: h.Opt.EvalStepN, StepP: h.Opt.EvalStepP,
		Workers: h.Opt.Workers, Ctx: h.Opt.Ctx, Memo: h.memo,
	}
	if train {
		o.StepN, o.StepP = h.Opt.TrainStepN, h.Opt.TrainStepP
	} else {
		o.Refine = !h.exhaustive
	}
	return o
}

// workloadDigest fingerprints a workload by composing its kernels'
// content digests (gridplan.KernelDigest: structure, per-warp
// iteration counts, sampled pattern addresses — cheap, yet it moves
// whenever a trace is re-recorded). The same per-kernel digest
// authenticates plan tasks and keys profiles, so cell tags, profile
// keys and the fleet protocol never disagree on a kernel's content.
func workloadDigest(w *sim.Workload) string {
	d := sha256.New()
	fmt.Fprintf(d, "%s/%d", w.Name, len(w.Kernels))
	for _, k := range w.Kernels {
		fmt.Fprintf(d, "|%s", gridplan.KernelDigest(k))
	}
	return hex.EncodeToString(d.Sum(nil)[:8])
}

// KernelProfile sweeps (or loads) the profile of one kernel at the
// evaluation grid.
func (h *Harness) KernelProfile(k *trace.Kernel) (*profile.Profile, error) {
	prs, err := h.profilesOf([]*trace.Kernel{k}, h.sweepOptions(false))
	return prs[k.Name], err
}

// KernelProfileFull sweeps (or loads) the whole evaluation grid of one
// kernel. The solution-space figures (Fig. 2's scatter/curves and PCAL
// walk, Fig. 17's case-study rendering) draw every grid point, which
// the refined subset KernelProfile returns cannot serve. Entries key
// apart from the refined ones (profile.SweepTag).
func (h *Harness) KernelProfileFull(k *trace.Kernel) (*profile.Profile, error) {
	opts := h.sweepOptions(false)
	opts.Refine = false
	prs, err := h.profilesOf([]*trace.Kernel{k}, opts)
	return prs[k.Name], err
}

// WorkloadProfiles returns per-kernel profiles for a set of workloads.
func (h *Harness) WorkloadProfiles(ws []*sim.Workload) (map[string]*profile.Profile, error) {
	return h.profilesOf(sim.DistinctKernels(ws), h.sweepOptions(false))
}

// profilesOf returns the evaluation-grid profiles of the kernels by
// name. The ones nobody has asked for yet are loaded or swept together:
// refined sweeps by one refinement, whose every round runs all its
// kernels' points on one Workers-wide pool.
func (h *Harness) profilesOf(kernels []*trace.Kernel, opts profile.SweepOptions) (map[string]*profile.Profile, error) {
	h.sweeping.Lock()
	defer h.sweeping.Unlock()
	key := func(k *trace.Kernel) profileKey { return profileKey{k.Name, opts.Refine} }
	var missing []*trace.Kernel
	for _, k := range kernels {
		if h.profiles[key(k)] == nil {
			missing = append(missing, k)
		}
	}
	swept, err := h.store.LoadOrSweepAll(h.Cfg, missing, opts)
	if err != nil {
		return nil, err
	}
	for i, sw := range swept {
		h.profiles[key(missing[i])] = sw.Profile
		h.books.Rounds += sw.Stats.Rounds
		h.books.Simulated += sw.Stats.Simulated
		h.books.GridPoints += sw.Stats.GridPoints
		if len(sw.Profile.Points) == sw.Stats.GridPoints { // never a cached one's
			h.escalated++
		}
	}
	out := make(map[string]*profile.Profile, len(kernels))
	for _, k := range kernels {
		out[k.Name] = h.profiles[key(k)]
	}
	return out, nil
}

// Dataset builds (once) the training dataset from the training
// workloads.
func (h *Harness) Dataset() (*poise.Dataset, error) {
	return h.dataset.Do(func() (*poise.Dataset, error) {
		return poise.BuildDataset(h.Cfg, h.Params, h.Cat.TrainingSet(),
			h.sweepOptions(true), h.store)
	})
}

// ModelWeights returns the weights used by the Poise policy: the
// explicit override, else the embedded defaults.
func (h *Harness) ModelWeights() (poise.Weights, error) {
	if h.Opt.Weights != nil {
		return *h.Opt.Weights, nil
	}
	if w, ok := poise.DefaultWeights(); ok {
		return w, nil
	}
	return poise.Weights{}, errors.New("experiments: the embedded default weights are invalid; regenerate them with poisetrain -emit or set Options.Weights")
}

// PoisePolicy builds a fresh Poise policy (per workload run — the
// displacement statistics are per-policy-instance).
func (h *Harness) PoisePolicy() (*poise.Policy, error) {
	w, err := h.ModelWeights()
	if err != nil {
		return nil, err
	}
	return poise.NewPolicy(h.Params, w), nil
}

// EvalWorkloads returns the evaluation set (paper order) followed by
// any extra (trace-backed) workloads whose names are not already in
// it, or the configured subset.
func (h *Harness) EvalWorkloads() []*sim.Workload {
	if len(h.Opt.EvalSubset) > 0 {
		out := make([]*sim.Workload, 0, len(h.Opt.EvalSubset))
		for _, name := range h.Opt.EvalSubset {
			out = append(out, h.Cat.Must(name))
		}
		return out
	}
	out := h.Cat.EvalSet()
	// Only genuinely new names join the evaluation set; an extra that
	// shadows any catalogue workload — training and compute-intensive
	// ones included — replaces it in place without changing set
	// membership.
	known := map[string]bool{}
	for _, names := range [][]string{workloads.TrainingNames(), workloads.EvalNames(), workloads.ComputeNames()} {
		for _, n := range names {
			known[n] = true
		}
	}
	for _, w := range h.Opt.ExtraWorkloads {
		if !known[w.Name] {
			known[w.Name] = true
			out = append(out, h.Cat.Must(w.Name))
		}
	}
	return out
}
