package glm

import (
	"math"
	"testing"

	"poise/internal/linalg"
	"poise/internal/stats"
)

// synthCounts draws counts with mean exp(x·beta); with alpha > 0 the
// counts are NB-overdispersed via a gamma-mixed Poisson.
func synthCounts(rng *stats.RNG, x *linalg.Mat, beta []float64, alpha float64) []float64 {
	y := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		mu := math.Exp(linalg.Dot(beta, x.Data[i*x.Cols:(i+1)*x.Cols]))
		lambda := mu
		if alpha > 0 {
			// Gamma(shape=1/alpha, scale=alpha*mu) has mean mu and the
			// NB2 variance profile when mixed into a Poisson.
			shape := 1 / alpha
			lambda = gammaDraw(rng, shape) * alpha * mu
		}
		y[i] = poissonDraw(rng, lambda)
	}
	return y
}

func poissonDraw(rng *stats.RNG, lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large rates.
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		return math.Round(v)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return float64(k)
		}
		k++
	}
}

func gammaDraw(rng *stats.RNG, shape float64) float64 {
	// Marsaglia-Tsang for shape >= 1; boost for shape < 1.
	if shape < 1 {
		u := rng.Float64()
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

func designMatrix(rng *stats.RNG, n, p int) *linalg.Mat {
	x := linalg.NewMat(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p-1; j++ {
			x.Set(i, j, rng.Float64()*2-1)
		}
		x.Set(i, p-1, 1) // intercept column last, like the Poise vector
	}
	return x
}

func TestPoissonRecoversCoefficients(t *testing.T) {
	rng := stats.NewRNG(101)
	truth := []float64{0.8, -0.5, 1.2}
	x := designMatrix(rng, 800, len(truth))
	y := synthCounts(rng, x, truth, 0)
	m, err := Fit(Poisson, x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range truth {
		if math.Abs(m.Coef[j]-want) > 0.12 {
			t.Fatalf("coef[%d] = %v, want ~%v (all: %v)", j, m.Coef[j], want, m.Coef)
		}
	}
}

func TestNegativeBinomialRecoversCoefficients(t *testing.T) {
	rng := stats.NewRNG(202)
	truth := []float64{0.6, -0.4, 1.5}
	x := designMatrix(rng, 1500, len(truth))
	y := synthCounts(rng, x, truth, 0.4)
	m, err := Fit(NegativeBinomial, x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range truth {
		if math.Abs(m.Coef[j]-want) > 0.15 {
			t.Fatalf("coef[%d] = %v, want ~%v (all: %v)", j, m.Coef[j], want, m.Coef)
		}
	}
	if m.Alpha < 0.1 || m.Alpha > 1.2 {
		t.Fatalf("dispersion = %v, want around 0.4", m.Alpha)
	}
}

func TestNBFixedDispersion(t *testing.T) {
	rng := stats.NewRNG(33)
	truth := []float64{0.5, 1.0}
	x := designMatrix(rng, 400, len(truth))
	y := synthCounts(rng, x, truth, 0.2)
	m, err := Fit(NegativeBinomial, x, y, Options{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha != 0.2 {
		t.Fatalf("fixed dispersion changed: %v", m.Alpha)
	}
}

func TestPredictMatchesLink(t *testing.T) {
	m := &Model{Family: Poisson, Coef: []float64{0.5, -1}}
	got := m.Predict([]float64{2, 1})
	want := math.Exp(0.5*2 - 1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

func TestPredictClampsEta(t *testing.T) {
	m := &Model{Family: Poisson, Coef: []float64{1000}}
	if got := m.Predict([]float64{1000}); math.IsInf(got, 0) {
		t.Fatal("Predict must clamp the linear predictor")
	}
}

func TestFitInputValidation(t *testing.T) {
	x := linalg.NewMat(3, 2)
	if _, err := Fit(Poisson, x, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("row/response mismatch must error")
	}
	if _, err := Fit(Poisson, x, []float64{1, -2, 0}, Options{}); err == nil {
		t.Fatal("negative response must error")
	}
	if _, err := Fit(Poisson, x, []float64{1, math.NaN(), 0}, Options{}); err == nil {
		t.Fatal("NaN response must error")
	}
	tall := linalg.NewMat(1, 2)
	if _, err := Fit(Poisson, tall, []float64{1}, Options{}); err == nil {
		t.Fatal("p > n must error")
	}
	if _, err := Fit(Family(99), x, []float64{1, 2, 3}, Options{}); err == nil {
		t.Fatal("unknown family must error")
	}
}

func TestDevianceNonNegativeAndR2(t *testing.T) {
	rng := stats.NewRNG(7)
	truth := []float64{1.0, 0.7}
	x := designMatrix(rng, 300, len(truth))
	y := synthCounts(rng, x, truth, 0)
	m, err := Fit(Poisson, x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Deviance < 0 {
		t.Fatalf("deviance negative: %v", m.Deviance)
	}
	if m.NullDev < m.Deviance {
		t.Fatalf("null deviance %v below residual %v — model worse than intercept", m.NullDev, m.Deviance)
	}
	r2 := m.PseudoR2()
	if r2 <= 0 || r2 > 1 {
		t.Fatalf("pseudo-R2 = %v out of (0,1]", r2)
	}
}

func TestNBDevianceUnitCases(t *testing.T) {
	// y == mu gives zero deviance contribution for both families.
	if d := unitDeviance(Poisson, 0, 5, 5); math.Abs(d) > 1e-12 {
		t.Fatalf("Poisson deviance at y=mu: %v", d)
	}
	if d := unitDeviance(NegativeBinomial, 0.5, 5, 5); math.Abs(d) > 1e-9 {
		t.Fatalf("NB deviance at y=mu: %v", d)
	}
	// y == 0 must still be non-negative.
	if d := unitDeviance(NegativeBinomial, 0.5, 0, 3); d < 0 {
		t.Fatalf("NB deviance negative at y=0: %v", d)
	}
	if d := unitDeviance(Poisson, 0, 0, 3); d < 0 {
		t.Fatalf("Poisson deviance negative at y=0: %v", d)
	}
}

func TestFamilyString(t *testing.T) {
	if Poisson.String() != "poisson" || NegativeBinomial.String() != "negative-binomial" {
		t.Fatal("family names wrong")
	}
}

func TestPredictAll(t *testing.T) {
	m := &Model{Family: Poisson, Coef: []float64{1}}
	x := linalg.NewMat(3, 1)
	x.Set(0, 0, 0)
	x.Set(1, 0, 1)
	x.Set(2, 0, 2)
	got := m.PredictAll(x)
	for i, want := range []float64{1, math.E, math.E * math.E} {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("PredictAll[%d] = %v, want %v", i, got[i], want)
		}
	}
}
