// Command poisetrain runs Poise's one-time offline training pipeline
// (the GPU-vendor step of the paper's deployment story): it profiles
// every kernel of the training workloads across the {N, p} solution
// space, applies the Table IV admission thresholds, scores targets with
// the Eq. 12 neighbourhood scoring, scales them to the 24-warp space,
// measures the Table II feature vectors, and fits the two Negative
// Binomial link functions.
//
// Outputs: a JSON weight file (-out) and/or a Go source file embedding
// the weights as the package default (-emit), with the training set it
// was fitted on written to testdata/dataset.jsonl beside it. For the
// shipped model that is
//
//	go run ./cmd/poisetrain -cache '' -emit internal/poise/defaultweights.go
//
// which rewrites internal/poise/defaultweights.go and
// internal/poise/testdata/dataset.jsonl.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"poise/internal/atomicfile"
	"poise/internal/config"
	"poise/internal/glm"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/workloads"
)

// shipped is the configuration the committed model and training set
// were built at, and the flags' defaults.
var shipped = poise.Provenance{SMs: 8, Size: "small", StepN: 3, StepP: 3}

func main() {
	r := trainRun{at: shipped}
	flag.IntVar(&r.at.SMs, "sms", shipped.SMs, "number of SMs (scaled memory system)")
	flag.StringVar(&r.at.Size, "size", shipped.Size, "workload size: small | medium | large")
	flag.IntVar(&r.at.StepN, "stepn", shipped.StepN, "profile sweep stride in N")
	flag.IntVar(&r.at.StepP, "stepp", shipped.StepP, "profile sweep stride in p")
	flag.StringVar(&r.cacheDir, "cache", ".poise-cache", "profile cache directory ('' disables)")
	flag.StringVar(&r.outJSON, "out", "", "write weights JSON to this path")
	flag.StringVar(&r.emitGo, "emit", "", "write a Go source file embedding the weights (internal/poise/defaultweights.go), and the training set to testdata/dataset.jsonl beside it")
	flag.BoolVar(&r.verbose, "v", true, "print per-kernel training detail")
	flag.Parse()

	if err := validateTrainFlags(r.at); err != nil {
		fatal(err)
	}
	if err := train(os.Stdout, r); err != nil {
		fatal(err)
	}
}

// validateTrainFlags rejects a configuration before anything is swept:
// an SM count config.Scale would not honour (it returns the 32-SM
// baseline for one), an unknown size, and a stride below one (which
// swept the exhaustive step-1 grid).
func validateTrainFlags(at poise.Provenance) error {
	if err := config.Default().CheckScale(at.SMs); err != nil {
		return fmt.Errorf("-sms: %w", err)
	}
	if _, err := parseSize(at.Size); err != nil {
		return err
	}
	if at.StepN < 1 || at.StepP < 1 {
		return fmt.Errorf("sweep strides must be >= 1 (got -stepn %d -stepp %d)", at.StepN, at.StepP)
	}
	return nil
}

// trainRun is one invocation: what to train at and where to write.
type trainRun struct {
	at       poise.Provenance
	cacheDir string // profile cache, "" = none
	outJSON  string // weights JSON path, "" = none
	emitGo   string // Go source path, "" = none; the dataset goes to testdata/ beside it
	verbose  bool
}

// train sweeps the training set at r.at, then fits and writes the model.
func train(out io.Writer, r trainRun) error {
	start := time.Now()
	size, err := parseSize(r.at.Size)
	if err != nil {
		return err
	}
	tag := fmt.Sprintf("train-sms%d-%s-%d.%d", r.at.SMs, r.at.Size, r.at.StepN, r.at.StepP)
	ds, err := poise.BuildDataset(config.Default().Scale(r.at.SMs), config.DefaultPoise(),
		workloads.NewCatalogue(size).TrainingSet(),
		profile.SweepOptions{StepN: r.at.StepN, StepP: r.at.StepP}, profile.Store{Dir: r.cacheDir}, tag)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dataset: %d kernels admitted (%d rejected: %d speedup, %d cycles, %d hitrate) in %v\n",
		len(ds.Samples), ds.RejectedSpeedup+ds.RejectedCycles+ds.RejectedHitRate,
		ds.RejectedSpeedup, ds.RejectedCycles, ds.RejectedHitRate,
		time.Since(start).Round(time.Second))
	return fit(out, ds, r)
}

// fit trains the model on ds, reports it on out and writes the files r
// asks for: the weights JSON, and the Go source with the dataset file
// beside it.
func fit(out io.Writer, ds *poise.Dataset, r trainRun) error {
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
		path := datasetPath(r.emitGo)
		if err := emitDataset(path, ds, r.at); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", path)
	}
	return nil
}

// datasetPath is where -emit writes the training set: testdata/ beside
// the Go source, which for the shipped model is
// internal/poise/testdata/dataset.jsonl.
func datasetPath(emitGo string) string {
	return filepath.Join(filepath.Dir(emitGo), "testdata", "dataset.jsonl")
}

// emitDataset replaces path with the dataset file, through
// atomicfile.Write.
func emitDataset(path string, ds *poise.Dataset, at poise.Provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicfile.Write(path, func(f io.Writer) error { return poise.WriteDataset(f, ds, at) })
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

func parseSize(s string) (workloads.Size, error) {
	switch s {
	case "small":
		return workloads.Small, nil
	case "medium":
		return workloads.Medium, nil
	case "large":
		return workloads.Large, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "poisetrain:", err)
	os.Exit(1)
}
