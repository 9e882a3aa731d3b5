package main

import (
	"bytes"
	"errors"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"poise/internal/poise"
	"poise/internal/testutil"
)

// parseEmitted reads the Weights literal back out of a source file
// written by emitDefaultWeights.
func parseEmitted(t *testing.T, path string) poise.Weights {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatalf("the emitted source does not parse: %v", err)
	}
	num := func(e ast.Expr) float64 {
		sign := 1.0
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.SUB {
			sign, e = -1, u.X
		}
		v, err := strconv.ParseFloat(e.(*ast.BasicLit).Value, 64)
		if err != nil {
			t.Fatal(err)
		}
		return sign * v
	}
	var w poise.Weights
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || len(lit.Elts) == 0 {
			return true
		}
		if id, ok := lit.Type.(*ast.Ident); !ok || id.Name != "Weights" {
			return true
		}
		found = true
		for _, el := range lit.Elts {
			kv := el.(*ast.KeyValueExpr)
			switch key := kv.Key.(*ast.Ident).Name; key {
			case "Alpha", "Beta":
				vec := &w.Alpha
				if key == "Beta" {
					vec = &w.Beta
				}
				elts := kv.Value.(*ast.CompositeLit).Elts
				if len(elts) != len(vec) {
					t.Fatalf("%s has %d coefficients, want %d", key, len(elts), len(vec))
				}
				for i, e := range elts {
					vec[i] = num(e)
				}
			case "DispersionN":
				w.DispersionN = num(kv.Value)
			case "DispersionP":
				w.DispersionP = num(kv.Value)
			case "TrainKernels":
				w.TrainKernels = int(num(kv.Value))
			case "PseudoR2N":
				w.PseudoR2N = num(kv.Value)
			case "PseudoR2P":
				w.PseudoR2P = num(kv.Value)
			case "Dropped":
				w.Dropped = int(num(kv.Value))
			default:
				t.Fatalf("unexpected field %s in the emitted literal", key)
			}
		}
		return false
	})
	if !found {
		t.Fatal("no Weights literal in the emitted source")
	}
	return w
}

// committedDataset is the training set -emit wrote beside the shipped
// model.
const committedDataset = "../../internal/poise/testdata/dataset.jsonl"

// loadCommitted reads the committed training set.
func loadCommitted(t *testing.T) (*poise.Dataset, poise.Provenance) {
	t.Helper()
	ds, at, err := poise.LoadDataset(committedDataset)
	if err != nil {
		t.Fatal(err)
	}
	return ds, at
}

// sameFile fails t unless the files at got and want hold the same bytes.
func sameFile(t *testing.T, got, want string, report string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s is not %s byte for byte; poisetrain printed:\n%s\nand wrote:\n%s", got, want, report, g)
	}
}

// TestTrainWritesLoadableWeights fits the committed training set the
// way poisetrain does: the JSON it writes loads through
// poise.LoadWeights to the model it reported, the Go source it emits
// carries the same model, coefficient for coefficient, and the dataset
// it writes beside the source reads back to the set it was given.
func TestTrainWritesLoadableWeights(t *testing.T) {
	dir := t.TempDir()
	ds, at := loadCommitted(t)
	var out bytes.Buffer
	run := trainRun{
		at:      at,
		outJSON: filepath.Join(dir, "w.json"),
		emitGo:  filepath.Join(dir, "defaultweights.go"),
		verbose: true,
	}
	if err := fit(&out, ds, run); err != nil {
		t.Fatalf("fit: %v\n%s", err, out.String())
	}
	w, err := poise.LoadWeights(run.outJSON)
	if err != nil {
		t.Fatalf("poise cannot load what poisetrain wrote: %v", err)
	}
	if w.TrainKernels != len(ds.Samples) || w.Dropped != -1 {
		t.Fatalf("loaded weights: %+v", w)
	}
	if got := parseEmitted(t, run.emitGo); !reflect.DeepEqual(got, w) {
		t.Fatalf("emitted source and JSON disagree:\n source %+v\n json   %+v", got, w)
	}
	back, backAt, err := poise.LoadDataset(filepath.Join(dir, "testdata", "dataset.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ds) || backAt != at {
		t.Fatalf("the dataset written beside the source reads back as %+v at %+v", back, backAt)
	}
	if !strings.Contains(out.String(), "wrote "+filepath.Join(dir, "testdata", "dataset.jsonl")) {
		t.Fatalf("poisetrain did not report the dataset it wrote:\n%s", out.String())
	}
}

// TestEmitReproducesTheShippedModel: emitting the embedded default
// model writes internal/poise/defaultweights.go back byte for byte, so
// the shipped file is what -emit generates and it is gofmt-clean.
func TestEmitReproducesTheShippedModel(t *testing.T) {
	w, ok := poise.DefaultWeights()
	if !ok {
		t.Skip("no embedded default weights in this build")
	}
	path := filepath.Join(t.TempDir(), "defaultweights.go")
	if err := emitDefaultWeights(path, w); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := os.ReadFile("../../internal/poise/defaultweights.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shipped) {
		t.Fatalf("emitDefaultWeights(DefaultWeights()) is not the shipped file:\n%s", got)
	}
	if formatted, err := format.Source(got); err != nil || !bytes.Equal(formatted, got) {
		t.Fatalf("the emitted source is not gofmt-clean (%v)", err)
	}
	if back := parseEmitted(t, path); !reflect.DeepEqual(back, w) {
		t.Fatalf("parsed back %+v, emitted %+v", back, w)
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteDefaultWeightsReturnsWriteErrors: a write that fails part
// way is returned, so poisetrain -emit reports it instead of printing
// "wrote" (and atomicfile.Write keeps the previous file).
func TestWriteDefaultWeightsReturnsWriteErrors(t *testing.T) {
	w, ok := poise.DefaultWeights()
	if !ok {
		t.Skip("no embedded default weights in this build")
	}
	if err := writeDefaultWeights(&failingWriter{n: 100}, w); !errors.Is(err, errDiskFull) {
		t.Fatalf("writeDefaultWeights into a failing writer = %v, want %v", err, errDiskFull)
	}
}

// TestShippedModelIsWhatTrainingProduces: fitting the committed
// training set, which was built at the configuration poisetrain's flags
// default to, emits internal/poise/defaultweights.go byte for byte, and
// writes the dataset file back unchanged. A change to the fit, its
// options or the emitted source cannot hide behind the weights an
// earlier commit shipped. That the sweep still builds this set is
// TestCommittedDatasetIsWhatTheSweepProduces's (with -full).
func TestShippedModelIsWhatTrainingProduces(t *testing.T) {
	ds, at := loadCommitted(t)
	if at != shipped {
		t.Fatalf("the committed dataset was built at %+v, poisetrain's defaults are %+v", at, shipped)
	}
	run := trainRun{at: at, emitGo: filepath.Join(t.TempDir(), "defaultweights.go"), verbose: true}
	var out bytes.Buffer
	if err := fit(&out, ds, run); err != nil {
		t.Fatalf("fit: %v\n%s", err, out.String())
	}
	sameFile(t, run.emitGo, "../../internal/poise/defaultweights.go", out.String())
	sameFile(t, datasetPath(run.emitGo), committedDataset, out.String())
}

// TestCommittedDatasetIsWhatTheSweepProduces: the run poisetrain's
// default flags ask for (8 SMs, Small, the whole step-3 grid of the 60
// training kernels), uncached, writes internal/poise/testdata/dataset.jsonl
// and internal/poise/defaultweights.go byte for byte. A simulator change
// that moves a training target or a feature moves the set and the
// model: regenerate both with poisetrain -emit. About 60 s on two
// cores, so it runs only with -full (CI's no-race step).
func TestCommittedDatasetIsWhatTheSweepProduces(t *testing.T) {
	if !testutil.Full() {
		t.Skip("sweeps the whole training set at the shipped configuration; run with -full")
	}
	run := trainRun{at: shipped, emitGo: filepath.Join(t.TempDir(), "defaultweights.go"), verbose: true}
	var out bytes.Buffer
	if err := train(&out, run); err != nil {
		t.Fatalf("train: %v\n%s", err, out.String())
	}
	sameFile(t, datasetPath(run.emitGo), committedDataset, out.String())
	sameFile(t, run.emitGo, "../../internal/poise/defaultweights.go", out.String())
}

// TestValidateTrainFlags: -sms takes 1 to the baseline's 32 SMs
// (config.Scale ran anything else as the 32-SM baseline), the strides
// are at least 1 (below that the sweep ran the exhaustive step-1 grid)
// and the size is one the catalogue knows.
func TestValidateTrainFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*poise.Provenance)
		wantErr string // "" = valid
	}{
		{"defaults", func(*poise.Provenance) {}, ""},
		{"one-sm", func(at *poise.Provenance) { at.SMs = 1 }, ""},
		{"baseline-sms", func(at *poise.Provenance) { at.SMs = 32 }, ""},
		{"medium-step-1", func(at *poise.Provenance) { at.Size, at.StepN, at.StepP = "medium", 1, 1 }, ""},
		{"zero-sms", func(at *poise.Provenance) { at.SMs = 0 }, "-sms"},
		{"negative-sms", func(at *poise.Provenance) { at.SMs = -3 }, "-sms"},
		{"sms-above-baseline", func(at *poise.Provenance) { at.SMs = 33 }, "-sms"},
		{"zero-stepn", func(at *poise.Provenance) { at.StepN = 0 }, "strides"},
		{"negative-stepp", func(at *poise.Provenance) { at.StepP = -1 }, "strides"},
		{"unknown-size", func(at *poise.Provenance) { at.Size = "huge" }, "size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			at := shipped
			tc.mutate(&at)
			err := validateTrainFlags(at)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.wantErr)
			}
		})
	}
}
