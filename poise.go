// Package poise is the public API of the Poise reproduction: a
// cycle-level GPU simulator with a machine-learning warp scheduler that
// balances thread-level parallelism against memory-system performance,
// after Dublish, Nagarajan & Topham, "Poise: Balancing Thread-Level
// Parallelism and Memory System Performance in GPUs using Machine
// Learning" (HPCA 2019).
//
// The facade wraps the internal packages into a small surface:
//
//   - Config / DefaultConfig describe the simulated GPU (paper Table
//     IIIb) and Params the Poise algorithm constants (Table IV).
//   - Workloads returns the synthetic benchmark catalogue standing in
//     for the paper's CUDA suites (Table IIIa).
//   - Run simulates one workload under a named scheduling policy.
//   - SweepSolutionSpace profiles a kernel across the {N, p} space.
//   - Train runs the offline learning pipeline; TrainedWeights returns
//     the embedded model.
//   - NewHarness exposes the per-figure experiment runners. Experiments
//     fan out across HarnessOptions.Workers goroutines and are
//     bit-identical at any worker count; HarnessOptions.Seed reseeds
//     the suite reproducibly.
//
// See the examples directory for runnable walkthroughs and cmd/ for the
// CLI tools.
package poise

import (
	"fmt"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/glm"
	corepoise "poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// Re-exported core types. The internal packages remain the
// implementation; these aliases are the supported names.
type (
	// Config is the architectural configuration (paper Table IIIb).
	Config = config.Config
	// Params carries Poise's algorithm parameters (paper Table IV).
	Params = config.PoiseParams
	// Workload is a named multi-kernel application.
	Workload = sim.Workload
	// WorkloadResult aggregates one simulated run.
	WorkloadResult = sim.WorkloadResult
	// KernelResult is the measurement of a single kernel.
	KernelResult = sim.KernelResult
	// Kernel is a launchable instruction-stream description.
	Kernel = trace.Kernel
	// Policy steers warp-tuples at runtime.
	Policy = sim.Policy
	// Weights is a trained Poise model (Table II analogue).
	Weights = corepoise.Weights
	// FeatureVector is the 8-element Table II feature vector.
	FeatureVector = corepoise.Vector
	// Profile is a profiled {N, p} solution space.
	Profile = profile.Profile
	// ProfilePoint is one profiled warp-tuple.
	ProfilePoint = profile.Point
	// Catalogue is the named workload suite.
	Catalogue = workloads.Catalogue
	// Size scales workload iteration counts.
	Size = workloads.Size
	// Harness runs the paper's evaluation experiments.
	Harness = experiments.Harness
	// HarnessOptions configures the experiment harness.
	HarnessOptions = experiments.Options
)

// Workload sizes.
const (
	Small  = workloads.Small
	Medium = workloads.Medium
	Large  = workloads.Large
)

// DefaultConfig returns the paper's 32-SM baseline. Scale it with
// Config.Scale for laptop-sized runs.
func DefaultConfig() Config { return config.Default() }

// DefaultParams returns the paper's Table IV parameters.
func DefaultParams() Params { return config.DefaultPoise() }

// Workloads builds the full benchmark catalogue at the given size.
func Workloads(size Size) *Catalogue { return workloads.NewCatalogue(size) }

// NewHarness constructs the experiment harness reproducing the paper's
// figures and tables.
func NewHarness(opt HarnessOptions) *Harness { return experiments.NewHarness(opt) }

// PolicySpec names a scheduling policy for Run.
type PolicySpec struct {
	// Name: "gto", "fixed", "swl", "static-best", "pcal-swl", "ccws",
	// "apcm", "random-restart" or "poise".
	Name string
	// N, P pin the tuple for the "fixed" policy.
	N, P int
	// Profiles supplies per-kernel solution-space profiles ("swl",
	// "static-best", "pcal-swl").
	Profiles map[string]*Profile
	// Weights supplies the trained model ("poise"); nil uses the
	// embedded default.
	Weights *Weights
	// Params overrides the Table IV constants; zero value uses defaults.
	Params *Params
	// Seed seeds "random-restart".
	Seed int64
}

// NewPolicy materialises a policy from its spec.
func NewPolicy(spec PolicySpec) (Policy, error) {
	params := config.DefaultPoise()
	if spec.Params != nil {
		params = *spec.Params
	}
	switch spec.Name {
	case "gto", "":
		return sim.GTO{}, nil
	case "fixed":
		return sim.Fixed{N: spec.N, P: spec.P}, nil
	case "swl":
		return sched.SWL(spec.Profiles), nil
	case "static-best":
		return sched.StaticBest(spec.Profiles), nil
	case "pcal-swl":
		return sched.NewPCALSWL(sched.SWLFromProfiles(spec.Profiles),
			params.TWarmup, params.TFeature, params.TPeriod), nil
	case "ccws":
		return sched.NewCCWS(params.TFeature), nil
	case "apcm":
		return sched.NewAPCM(params.TFeature), nil
	case "random-restart":
		return sched.NewRandomRestart(spec.Seed, params.TWarmup,
			params.TSearch, params.TPeriod, params.StrideN, params.StrideP), nil
	case "poise":
		w := Weights{}
		if spec.Weights != nil {
			w = *spec.Weights
		} else if dw, ok := corepoise.DefaultWeights(); ok {
			w = dw
		} else {
			return nil, fmt.Errorf("poise: no trained weights available; train first or pass Weights")
		}
		return corepoise.NewPolicy(params, w), nil
	default:
		return nil, fmt.Errorf("poise: unknown policy %q", spec.Name)
	}
}

// Run simulates workload w on cfg under the given policy.
func Run(cfg Config, w *Workload, p Policy) (WorkloadResult, error) {
	res, _, err := sim.Drive(cfg, sim.Job{Workload: w, Policy: func() (sim.Policy, error) { return p, nil }})
	return res, err
}

// SweepSolutionSpace profiles kernel k across the {N, p} space at the
// given grid resolution (1 = exhaustive).
func SweepSolutionSpace(cfg Config, k *Kernel, stepN, stepP int) (*Profile, error) {
	return profile.Sweep(cfg, k, profile.SweepOptions{StepN: stepN, StepP: stepP})
}

// TrainOptions configures Train.
type TrainOptions struct {
	// StepN/StepP set the training sweep grid (coarse is fine).
	StepN, StepP int
	// CacheDir caches kernel profiles between runs.
	CacheDir string
	// Drop ablates one feature index (0 or -1 = none; the paper's
	// Fig. 13 ablates x3..x7, i.e. indices 2..6).
	Drop int
}

// Train runs the full offline pipeline — profile, score, scale, fit —
// on the catalogue's training workloads and returns the learned model.
func Train(cfg Config, size Size, opt TrainOptions) (Weights, error) {
	if opt.StepN <= 0 {
		opt.StepN = 3
	}
	if opt.StepP <= 0 {
		opt.StepP = 3
	}
	params := config.DefaultPoise()
	cat := workloads.NewCatalogue(size)
	store := profile.Store{Dir: opt.CacheDir}
	tag := fmt.Sprintf("train-%d-%d-%d", cfg.NumSMs, opt.StepN, opt.StepP)
	ds, err := corepoise.BuildDataset(cfg, params, cat.TrainingSet(),
		profile.SweepOptions{StepN: opt.StepN, StepP: opt.StepP}, store, tag)
	if err != nil {
		return Weights{}, err
	}
	drop := opt.Drop
	if drop == 0 {
		drop = -1
	}
	return corepoise.Train(ds, corepoise.TrainOptions{Drop: drop, GLM: glm.Options{}})
}

// TrainedWeights returns the embedded default model, if one has been
// generated (see cmd/poisetrain).
func TrainedWeights() (Weights, bool) { return corepoise.DefaultWeights() }
