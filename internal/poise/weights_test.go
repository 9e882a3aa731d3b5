package poise

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validWeights returns a weight set that passes Validate, for building
// the rejected variants from.
func validWeights() Weights {
	w := Weights{TrainKernels: 3, Dropped: -1}
	for i := range w.Alpha {
		w.Alpha[i] = 0.1 * float64(i+1)
		w.Beta[i] = -0.05 * float64(i+1)
	}
	return w
}

// TestParseWeightsRejects pins the fail-fast contract of every load
// site: documents that decode but cannot have come from training are
// errors at parse time, with the reason in the message.
func TestParseWeightsRejects(t *testing.T) {
	valid, err := json.Marshal(validWeights())
	if err != nil {
		t.Fatal(err)
	}
	shortAlpha := strings.Replace(string(valid), `"alpha":[0.1,`, `"alpha":[`, 1)
	longBeta := strings.Replace(string(valid), `"beta":[`, `"beta":[9,`, 1)
	zero, err := json.Marshal(Weights{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		want string // substring of the error; "" = must parse
	}{
		{"valid", string(valid), ""},
		{"garbage", "not json at all", "corrupt weights"},
		{"truncated", string(valid[:len(valid)/2]), "corrupt weights"},
		{"empty-object", "{}", "shape"},
		{"short-alpha", shortAlpha, "shape"},
		{"long-beta", longBeta, "shape"},
		{"all-zero", string(zero), "all zero"},
		{"huge-number", strings.Replace(string(valid), "0.1,", "1e999,", 1), "corrupt weights"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := ParseWeights([]byte(tc.data))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid weights rejected: %v", err)
				}
				if w != validWeights() {
					t.Fatalf("round trip lost data: %+v", w)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got weights %+v", tc.want, w)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateRejectsNonFinite covers the Validate-level rejections
// that JSON numbers cannot carry (NaN/Inf arise in-process, e.g. from
// a diverged fit).
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Weights)
	}{
		{"nan-alpha", func(w *Weights) { w.Alpha[2] = math.NaN() }},
		{"inf-beta", func(w *Weights) { w.Beta[5] = math.Inf(1) }},
		{"neg-inf-alpha", func(w *Weights) { w.Alpha[0] = math.Inf(-1) }},
		{"nan-dispersion", func(w *Weights) { w.DispersionP = math.NaN() }},
		{"inf-pseudo-r2", func(w *Weights) { w.PseudoR2N = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := validWeights()
			tc.mutate(&w)
			if err := w.Validate(); err == nil {
				t.Fatal("invalid weights passed Validate")
			}
		})
	}
}

// TestLoadWeightsValidates: the file loader applies the same
// validation, naming the offending path.
func TestLoadWeightsValidates(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "zero.json")
	data, err := json.Marshal(Weights{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWeights(bad); err == nil {
		t.Fatal("all-zero weights file must fail to load")
	} else if !strings.Contains(err.Error(), "zero.json") {
		t.Fatalf("error %q does not name the file", err)
	}

	good := filepath.Join(dir, "good.json")
	if err := validWeights().Save(good); err != nil {
		t.Fatal(err)
	}
	w, err := LoadWeights(good)
	if err != nil {
		t.Fatal(err)
	}
	if w != validWeights() {
		t.Fatalf("round trip lost data: %+v", w)
	}
}

// TestPredictZeroAllocs anchors the serve layer's zero-allocation
// claim one layer down: the two link-function evaluations must not
// allocate per call.
func TestPredictZeroAllocs(t *testing.T) {
	w, ok := DefaultWeights()
	if !ok {
		t.Skip("no embedded weights")
	}
	x := Vector{0.5, 0.6, 0.2, 0.4, 0.04, 0.3, 0.1, 1}
	if n := testing.AllocsPerRun(100, func() {
		w.Predict(x)
	}); n != 0 {
		t.Fatalf("Predict allocates %.1f objects per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		w.PredictTuple(x, 24)
	}); n != 0 {
		t.Fatalf("PredictTuple allocates %.1f objects per call", n)
	}
}

func BenchmarkPredict(b *testing.B) {
	w, ok := DefaultWeights()
	if !ok {
		b.Skip("no embedded weights")
	}
	x := Vector{0.5, 0.6, 0.2, 0.4, 0.04, 0.3, 0.1, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Predict(x)
	}
}
