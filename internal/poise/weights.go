package poise

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"poise/internal/atomicfile"
)

// Weights is a trained Poise model: one weight per feature for each of
// the two link functions ln(N) = alpha.X and ln(p) = beta.X (paper
// Eq. 13 / Table II). The compiler ships these 64 bytes of state to
// the GPU via constant memory; the HIE evaluates the two dot products
// once per inference epoch.
type Weights struct {
	Alpha [NumFeatures]float64 `json:"alpha"` // weights for output N
	Beta  [NumFeatures]float64 `json:"beta"`  // weights for output p

	// Training metadata (not used at inference time).
	DispersionN  float64 `json:"dispersion_n"` // NB dispersion of the N model
	DispersionP  float64 `json:"dispersion_p"`
	TrainKernels int     `json:"train_kernels"` // admitted kernels
	PseudoR2N    float64 `json:"pseudo_r2_n"`
	PseudoR2P    float64 `json:"pseudo_r2_p"`
	Dropped      int     `json:"dropped"` // ablated feature index, -1 = none
}

// hwMaxWarps is the per-scheduler warp bound the training targets are
// scaled to (paper §V-C): 24 on the baseline hardware.
const hwMaxWarps = 24

// Predict evaluates the link functions on x and returns the raw
// (scaled-space) predictions before reverse scaling.
func (w Weights) Predict(x Vector) (nScaled, pScaled float64) {
	var etaN, etaP float64
	for i := 0; i < NumFeatures; i++ {
		etaN += w.Alpha[i] * x[i]
		etaP += w.Beta[i] * x[i]
	}
	return math.Exp(min(max(etaN, -10), 10)), math.Exp(min(max(etaP, -10), 10))
}

// PredictTuple predicts a concrete warp-tuple for a kernel whose
// scheduler exposes maxN warps: the scaled-space prediction is
// reverse-scaled (paper §VI-A), rounded and clamped to 1 <= p <= N <=
// maxN.
func (w Weights) PredictTuple(x Vector, maxN int) (n, p int) {
	ns, ps := w.Predict(x)
	n = reverseScale(ns, maxN)
	p = reverseScale(ps, maxN)
	if p > n {
		p = n
	}
	return n, p
}

// ScaleTarget maps a profiled target value (found with maxN warps
// available) into the uniform 24-warp training space.
func ScaleTarget(v, maxN int) float64 {
	if maxN <= 0 {
		maxN = hwMaxWarps
	}
	return min(max(float64(v)*hwMaxWarps/float64(maxN), 1), hwMaxWarps)
}

// reverseScale maps a scaled-space prediction back to the kernel's
// actual warp bound.
func reverseScale(scaled float64, maxN int) int {
	if maxN <= 0 {
		maxN = hwMaxWarps
	}
	return min(max(int(math.Round(scaled*float64(maxN)/hwMaxWarps)), 1), maxN)
}

// Save writes the weights as JSON (the artefact cmd/poisetrain emits;
// in the paper's deployment story this is what the compiler embeds).
// The write is atomic: a service that persists each retrained model
// here never leaves a reader, or a crash, a half-written file.
func (w Weights) Save(path string) error {
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, data)
}

// LoadWeights reads and validates weights saved by Save. Every load
// site gets the same fail-fast guarantee: a file that decodes but
// could not have come from training (wrong vector shape, NaN/Inf
// coefficients, all zeros) is an error here, not a latent mispredict
// at inference time.
func LoadWeights(path string) (Weights, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Weights{}, err
	}
	w, err := ParseWeights(data)
	if err != nil {
		return Weights{}, fmt.Errorf("%w (loading %s)", err, path)
	}
	return w, nil
}

// ParseWeights decodes a weights JSON document and validates it. The
// coefficient vectors are decoded as slices first so a document with
// the wrong number of features is a shape error instead of a silent
// truncation (encoding/json drops surplus array elements when
// decoding straight into a fixed-size array).
func ParseWeights(data []byte) (Weights, error) {
	var wire struct {
		Alpha        []float64 `json:"alpha"`
		Beta         []float64 `json:"beta"`
		DispersionN  float64   `json:"dispersion_n"`
		DispersionP  float64   `json:"dispersion_p"`
		TrainKernels int       `json:"train_kernels"`
		PseudoR2N    float64   `json:"pseudo_r2_n"`
		PseudoR2P    float64   `json:"pseudo_r2_p"`
		Dropped      int       `json:"dropped"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return Weights{}, fmt.Errorf("poise: corrupt weights: %w", err)
	}
	if len(wire.Alpha) != NumFeatures || len(wire.Beta) != NumFeatures {
		return Weights{}, fmt.Errorf("poise: weights shape alpha[%d]/beta[%d], want %d features each",
			len(wire.Alpha), len(wire.Beta), NumFeatures)
	}
	w := Weights{
		DispersionN:  wire.DispersionN,
		DispersionP:  wire.DispersionP,
		TrainKernels: wire.TrainKernels,
		PseudoR2N:    wire.PseudoR2N,
		PseudoR2P:    wire.PseudoR2P,
		Dropped:      wire.Dropped,
	}
	copy(w.Alpha[:], wire.Alpha)
	copy(w.Beta[:], wire.Beta)
	if err := w.Validate(); err != nil {
		return Weights{}, err
	}
	return w, nil
}

// Validate rejects weight sets that cannot have come from training.
func (w Weights) Validate() error {
	all0 := true
	for i := range w.Alpha {
		if w.Alpha[i] != 0 || w.Beta[i] != 0 {
			all0 = false
		}
		if math.IsNaN(w.Alpha[i]) || math.IsInf(w.Alpha[i], 0) ||
			math.IsNaN(w.Beta[i]) || math.IsInf(w.Beta[i], 0) {
			return errors.New("poise: weights contain NaN/Inf")
		}
	}
	if all0 {
		return errors.New("poise: weights are all zero (untrained)")
	}
	for _, v := range [...]float64{w.DispersionN, w.DispersionP, w.PseudoR2N, w.PseudoR2P} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("poise: weights metadata contains NaN/Inf")
		}
	}
	return nil
}
