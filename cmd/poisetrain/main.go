// Command poisetrain runs Poise's one-time offline training pipeline
// (the GPU-vendor step of the paper's deployment story): it profiles
// every kernel of the training workloads across the {N, p} solution
// space, applies the Table IV admission thresholds, scores targets with
// the Eq. 12 neighbourhood scoring, scales them to the 24-warp space,
// measures the Table II feature vectors, and fits the two Negative
// Binomial link functions.
//
// Outputs: a JSON weight file (-out) and/or a Go source file embedding
// the weights as the package default (-emit).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"poise/internal/atomicfile"
	"poise/internal/config"
	"poise/internal/glm"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/workloads"
)

func main() {
	var (
		sms      = flag.Int("sms", 8, "number of SMs (scaled memory system)")
		size     = flag.String("size", "small", "workload size: small | medium | large")
		stepN    = flag.Int("stepn", 3, "profile sweep stride in N")
		stepP    = flag.Int("stepp", 3, "profile sweep stride in p")
		cacheDir = flag.String("cache", ".poise-cache", "profile cache directory ('' disables)")
		outJSON  = flag.String("out", "", "write weights JSON to this path")
		emitGo   = flag.String("emit", "", "write a Go source file embedding the weights (internal/poise/defaultweights.go)")
		verbose  = flag.Bool("v", true, "print per-kernel training detail")
	)
	flag.Parse()

	tag := fmt.Sprintf("train-sms%d-%s-%d.%d", *sms, *size, *stepN, *stepP)
	err := train(os.Stdout, trainRun{
		cfg:     config.Default().Scale(*sms),
		params:  config.DefaultPoise(),
		set:     workloads.NewCatalogue(parseSize(*size)).TrainingSet(),
		sweep:   profile.SweepOptions{StepN: *stepN, StepP: *stepP},
		store:   profile.Store{Dir: *cacheDir},
		tag:     tag,
		outJSON: *outJSON,
		emitGo:  *emitGo,
		verbose: *verbose,
	})
	if err != nil {
		fatal(err)
	}
}

// trainRun is one invocation: what to train on and where to write.
type trainRun struct {
	cfg     config.Config
	params  config.PoiseParams
	set     []*sim.Workload
	sweep   profile.SweepOptions
	store   profile.Store
	tag     string
	outJSON string // weights JSON path, "" = none
	emitGo  string // Go source path, "" = none
	verbose bool
}

// train runs the pipeline and reports on out.
func train(out io.Writer, r trainRun) error {
	start := time.Now()
	ds, err := poise.BuildDataset(r.cfg, r.params, r.set, r.sweep, r.store, r.tag)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dataset: %d kernels admitted (%d rejected: %d speedup, %d cycles, %d hitrate) in %v\n",
		len(ds.Samples), ds.RejectedSpeedup+ds.RejectedCycles+ds.RejectedHitRate,
		ds.RejectedSpeedup, ds.RejectedCycles, ds.RejectedHitRate,
		time.Since(start).Round(time.Second))

	if r.verbose {
		for _, s := range ds.Samples {
			fmt.Fprintf(out, "  %-10s target=(%2d,%2d) scaled=(%5.1f,%5.1f) best=%.3fx scored=%.3fx\n",
				s.Kernel, s.RawN, s.RawP, s.TargetN, s.TargetP, s.BestSpeedup, s.ScoreSpeedup)
		}
	}

	w, err := poise.Train(ds, poise.TrainOptions{Drop: -1, GLM: glm.Options{}})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\ntrained weights (Table II analogue):")
	for i := 0; i < poise.NumFeatures; i++ {
		fmt.Fprintf(out, "  x%d %-22s alpha=%+.6f beta=%+.6f\n",
			i+1, poise.FeatureNames[i], w.Alpha[i], w.Beta[i])
	}
	fmt.Fprintf(out, "dispersion N=%.4f p=%.4f, pseudo-R2 N=%.3f p=%.3f\n",
		w.DispersionN, w.DispersionP, w.PseudoR2N, w.PseudoR2P)

	errN, errP := poise.EvaluateOffline(w, ds.Samples)
	fmt.Fprintf(out, "in-sample prediction error: N %.1f%%, p %.1f%%\n", 100*errN, 100*errP)

	if r.outJSON != "" {
		if err := w.Save(r.outJSON); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", r.outJSON)
	}
	if r.emitGo != "" {
		if err := emitDefaultWeights(r.emitGo, w); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", r.emitGo)
	}
	return nil
}

// emitDefaultWeights replaces path with the Go source for the embedded
// default model, through atomicfile.Write: a failed write leaves the
// previous file in place, never a truncated one.
func emitDefaultWeights(path string, w poise.Weights) error {
	return atomicfile.Write(path, func(f io.Writer) error { return writeDefaultWeights(f, w) })
}

// writeDefaultWeights renders the Go source for the embedded default
// model, preserving the documentation block of the original file.
func writeDefaultWeights(out io.Writer, w poise.Weights) error {
	_, err := fmt.Fprintf(out, `package poise

// defaultWeights holds the shipped model: the output of running
// cmd/poisetrain on the synthetic training set (gco, pvr, ccl) at the
// canonical experiment configuration (8 SMs, Small size). It plays the
// role of the paper's Table II — in the deployment story, the values a
// GPU vendor trains once and ships through the compiler. Regenerate
// with:
//
//	go run ./cmd/poisetrain -emit internal/poise/defaultweights.go
//
// DO NOT EDIT below: generated by cmd/poisetrain.
var defaultWeights, defaultWeightsValid = Weights{
	Alpha:        %#v,
	Beta:         %#v,
	DispersionN:  %v,
	DispersionP:  %v,
	TrainKernels: %d,
	PseudoR2N:    %v,
	PseudoR2P:    %v,
	Dropped:      -1,
}, true

// DefaultWeights returns the embedded trained model and whether one has
// been embedded.
func DefaultWeights() (Weights, bool) {
	if !defaultWeightsValid {
		return Weights{}, false
	}
	if err := defaultWeights.Validate(); err != nil {
		return Weights{}, false
	}
	return defaultWeights, true
}

// SetDefaultWeights installs a freshly trained model process-wide (the
// emitted source file makes it permanent).
func SetDefaultWeights(w Weights) {
	defaultWeights = w
	defaultWeightsValid = true
}
`, w.Alpha, w.Beta, w.DispersionN, w.DispersionP, w.TrainKernels, w.PseudoR2N, w.PseudoR2P)
	return err
}

func parseSize(s string) workloads.Size {
	switch s {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "poisetrain:", err)
	os.Exit(1)
}
