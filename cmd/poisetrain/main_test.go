package main

import (
	"bytes"
	"errors"
	"fmt"
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

	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
	"poise/internal/workloads"
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

// TestTrainWritesLoadableWeights runs the whole pipeline on two tiny
// workloads at the tiny configuration (five kernels each: the fit needs
// at least as many kernels as features): the JSON it writes loads
// through poise.LoadWeights to the model it reported, and the Go source
// it emits carries the same model, coefficient for coefficient.
func TestTrainWritesLoadableWeights(t *testing.T) {
	dir := t.TempDir()
	params := testutil.TinyParams()
	params.MinTrainCycles = 1
	var thrash, shared []*trace.Kernel
	for i := 0; i < 5; i++ {
		thrash = append(thrash, testutil.ThrashKernel(fmt.Sprintf("thrash%d", i), 24+16*i, 20+4*i, 3))
		shared = append(shared, testutil.SharedKernel(fmt.Sprintf("shared%d", i), 8+8*i, 20+4*i, 3))
	}
	var out bytes.Buffer
	run := trainRun{
		cfg:     testutil.TinyConfig(),
		params:  params,
		set:     []*sim.Workload{testutil.Workload("thrash", thrash...), testutil.Workload("shared", shared...)},
		sweep:   profile.SweepOptions{StepN: 8, StepP: 8},
		store:   profile.Store{Dir: filepath.Join(dir, "cache")},
		tag:     "smoke",
		outJSON: filepath.Join(dir, "w.json"),
		emitGo:  filepath.Join(dir, "defaultweights.go"),
		verbose: true,
	}
	if err := train(&out, run); err != nil {
		t.Fatalf("train: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "dataset: 10 kernels admitted") {
		t.Fatalf("expected both kernels admitted:\n%s", out.String())
	}
	w, err := poise.LoadWeights(run.outJSON)
	if err != nil {
		t.Fatalf("poise cannot load what poisetrain wrote: %v", err)
	}
	if w.TrainKernels != 10 || w.Dropped != -1 {
		t.Fatalf("loaded weights: %+v", w)
	}
	if got := parseEmitted(t, run.emitGo); !reflect.DeepEqual(got, w) {
		t.Fatalf("emitted source and JSON disagree:\n source %+v\n json   %+v", got, w)
	}
	// A second run reuses the cached profiles and reproduces the model.
	run.outJSON = filepath.Join(dir, "again.json")
	run.emitGo = ""
	if err := train(&out, run); err != nil {
		t.Fatal(err)
	}
	if again, err := poise.LoadWeights(run.outJSON); err != nil || !reflect.DeepEqual(again, w) {
		t.Fatalf("a second run over the cache gave %+v (%v), the first %+v", again, err, w)
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

// TestShippedModelIsWhatTrainingProduces: the run poisetrain's default
// flags ask for (main: 8 SMs, Small, the whole step-3 grid of the 60
// training kernels, which is the one way a training set is swept since
// the harness's stopped refining), uncached, must emit
// internal/poise/defaultweights.go byte for byte. A simulator change
// that moves a training target or a feature moves the model, and cannot
// hide behind the weights an earlier commit shipped. About 40 s on two
// cores: not under -short, not under the race detector (CI's no-race
// step runs it).
func TestShippedModelIsWhatTrainingProduces(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sweeps the whole training set at the shipped configuration")
	}
	run := trainRun{
		cfg:     config.Default().Scale(8),
		params:  config.DefaultPoise(),
		set:     workloads.NewCatalogue(workloads.Small).TrainingSet(),
		sweep:   profile.SweepOptions{StepN: 3, StepP: 3},
		emitGo:  filepath.Join(t.TempDir(), "defaultweights.go"),
		verbose: true,
	}
	var out bytes.Buffer
	if err := train(&out, run); err != nil {
		t.Fatalf("train: %v\n%s", err, out.String())
	}
	got, err := os.ReadFile(run.emitGo)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := os.ReadFile("../../internal/poise/defaultweights.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shipped) {
		t.Fatalf("training at this commit does not produce the shipped model; poisetrain printed:\n%s\nand emitted:\n%s", out.String(), got)
	}
}
