// Package glm implements the generalized linear models the paper's
// machine-learning framework relies on: Poisson regression and —
// Poise's choice — Negative Binomial regression with a log link,
// fitted by iteratively reweighted least squares (IRLS). The negative
// binomial family predicts discrete non-negative targets (warp counts)
// and allows overdispersion, which is exactly the rationale given in
// paper §V-D.
package glm

import (
	"errors"
	"fmt"
	"math"

	"poise/internal/linalg"
)

// Family selects the response distribution of the GLM.
type Family int

const (
	// Poisson: Var(y) = mu.
	Poisson Family = iota
	// NegativeBinomial: Var(y) = mu + alpha*mu^2 (NB2 parameterisation).
	NegativeBinomial
)

func (f Family) String() string {
	switch f {
	case Poisson:
		return "poisson"
	case NegativeBinomial:
		return "negative-binomial"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Options tunes the IRLS fit.
type Options struct {
	Ridge float64 // diagonal stabiliser for the normal equations (default 1e-8)
	Alpha float64 // NB dispersion; <= 0 means estimate by method of moments
}

const (
	maxIter   = 100  // IRLS iterations
	tol       = 1e-8 // convergence tolerance on coefficient change
	alphaIter = 8    // outer iterations for dispersion estimation
)

func (o Options) withDefaults() Options {
	if o.Ridge < 0 {
		o.Ridge = 0
	} else if o.Ridge == 0 {
		o.Ridge = 1e-8
	}
	return o
}

// Model is a fitted GLM with a log link: ln E[y] = Xβ.
type Model struct {
	Family Family
	Coef   []float64 // fitted weights, one per feature column
	Alpha  float64   // NB dispersion (0 for Poisson)

	Deviance float64 // residual deviance
	NullDev  float64 // deviance of the intercept-only model
}

// PseudoR2 returns McFadden-style 1 - deviance/null_deviance, a rough
// goodness-of-fit indicator for count models.
func (m *Model) PseudoR2() float64 {
	if m.NullDev == 0 {
		return 0
	}
	return 1 - m.Deviance/m.NullDev
}

// Predict returns exp(x·β), the expected response for feature vector x.
func (m *Model) Predict(x []float64) float64 {
	return math.Exp(clampEta(linalg.Dot(m.Coef, x)))
}

// PredictAll applies Predict to each row of X.
func (m *Model) PredictAll(x *linalg.Mat) []float64 {
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		out[i] = m.Predict(x.Data[i*x.Cols : (i+1)*x.Cols])
	}
	return out
}

const (
	etaMax = 30.0 // exp(30) ~ 1e13: beyond any warp count; keeps IRLS finite
	etaMin = -30.0
)

func clampEta(eta float64) float64 {
	if eta > etaMax {
		return etaMax
	}
	if eta < etaMin {
		return etaMin
	}
	return eta
}

// Fit fits a log-link GLM of family fam to the design matrix x
// (rows = observations, cols = features; include an explicit constant
// column for an intercept) and non-negative responses y.
func Fit(fam Family, x *linalg.Mat, y []float64, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	n, p := x.Rows, x.Cols
	if n != len(y) {
		return nil, fmt.Errorf("glm: %d rows but %d responses", n, len(y))
	}
	if n == 0 {
		return nil, errors.New("glm: no observations")
	}
	if n < p {
		return nil, fmt.Errorf("glm: %d observations cannot identify %d features", n, p)
	}
	for i, v := range y {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("glm: response %d = %v is not a valid count", i, v)
		}
	}

	switch fam {
	case Poisson:
		coef, err := irls(x, y, 0, opts)
		if err != nil {
			return nil, err
		}
		m := &Model{Family: Poisson, Coef: coef}
		m.finishStats(x, y)
		return m, nil
	case NegativeBinomial:
		return fitNB(x, y, opts)
	default:
		return nil, fmt.Errorf("glm: unknown family %v", fam)
	}
}

// fitNB alternates IRLS for the coefficients with a method-of-moments
// update of the dispersion alpha, the standard profile approach.
func fitNB(x *linalg.Mat, y []float64, opts Options) (*Model, error) {
	alpha := opts.Alpha
	estimate := alpha <= 0
	if estimate {
		alpha = 0.1 // neutral starting overdispersion
	}
	var (
		coef []float64
		err  error
	)
	outer := 1
	if estimate {
		outer = alphaIter
	}
	for round := 0; round < outer; round++ {
		coef, err = irls(x, y, alpha, opts)
		if err != nil {
			return nil, err
		}
		if !estimate {
			break
		}
		next := momentAlpha(x, y, coef)
		if math.Abs(next-alpha) < 1e-6 {
			alpha = next
			break
		}
		alpha = next
	}
	m := &Model{Family: NegativeBinomial, Coef: coef, Alpha: alpha}
	m.finishStats(x, y)
	return m, nil
}

// momentAlpha estimates the NB2 dispersion via the auxiliary moment
// regression alpha = mean[((y-mu)^2 - mu) / mu^2], floored at a small
// positive value (an alpha of exactly zero reduces NB to Poisson).
func momentAlpha(x *linalg.Mat, y, coef []float64) float64 {
	var s float64
	n := 0
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*x.Cols : (i+1)*x.Cols]
		mu := math.Exp(clampEta(linalg.Dot(coef, row)))
		if mu < 1e-8 {
			continue
		}
		d := y[i] - mu
		s += (d*d - mu) / (mu * mu)
		n++
	}
	if n == 0 {
		return 1e-6
	}
	a := s / float64(n)
	if a < 1e-6 {
		a = 1e-6
	}
	if a > 10 {
		a = 10
	}
	return a
}

// irls runs iteratively reweighted least squares for a log link. With
// alpha == 0 the working weights are Poisson (w = mu); otherwise NB2
// (w = mu / (1 + alpha*mu)).
func irls(x *linalg.Mat, y []float64, alpha float64, opts Options) ([]float64, error) {
	n, p := x.Rows, x.Cols
	coef := make([]float64, p)
	// Start from the log-mean intercept if a constant-ish column exists;
	// otherwise zeros are fine because eta is clamped.
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	if meanY > 0 {
		// Put the starting mass on the last column when it is constant
		// (our feature vectors carry the intercept last, Table II x8).
		constCol := -1
		for j := 0; j < p; j++ {
			isConst := true
			v0 := x.At(0, j)
			for i := 1; i < n; i++ {
				if x.At(i, j) != v0 {
					isConst = false
					break
				}
			}
			if isConst && v0 != 0 {
				constCol = j
				break
			}
		}
		if constCol >= 0 {
			coef[constCol] = math.Log(meanY) / x.At(0, constCol)
		}
	}

	w := make([]float64, n)
	z := make([]float64, n)
	for range maxIter {
		for i := 0; i < n; i++ {
			row := x.Data[i*p : (i+1)*p]
			eta := clampEta(linalg.Dot(coef, row))
			mu := math.Exp(eta)
			if mu < 1e-10 {
				mu = 1e-10
			}
			wi := mu
			if alpha > 0 {
				wi = mu / (1 + alpha*mu)
			}
			w[i] = wi
			z[i] = eta + (y[i]-mu)/mu
		}
		xtwx, e := linalg.XtWX(x, w)
		if e != nil {
			return nil, e
		}
		linalg.Ridge(xtwx, opts.Ridge)
		xtwz, e := linalg.XtWz(x, w, z)
		if e != nil {
			return nil, e
		}
		next, e := linalg.SolveSPD(xtwx, xtwz)
		if e != nil {
			return nil, fmt.Errorf("glm: IRLS solve failed: %w", e)
		}
		var delta float64
		for j := range next {
			delta += math.Abs(next[j] - coef[j])
		}
		coef = next
		if delta < tol {
			break
		}
	}
	return coef, nil
}

// finishStats computes the deviance and null deviance of a fitted model.
func (m *Model) finishStats(x *linalg.Mat, y []float64) {
	mu := m.PredictAll(x)
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(len(y))
	if meanY <= 0 {
		meanY = 1e-10
	}
	var dev, nullDev float64
	for i, yi := range y {
		dev += unitDeviance(m.Family, m.Alpha, yi, mu[i])
		nullDev += unitDeviance(m.Family, m.Alpha, yi, meanY)
	}
	m.Deviance = dev
	m.NullDev = nullDev
}

// unitDeviance is the per-observation deviance contribution.
func unitDeviance(fam Family, alpha, y, mu float64) float64 {
	if mu < 1e-10 {
		mu = 1e-10
	}
	switch fam {
	case Poisson:
		if y == 0 {
			return 2 * mu
		}
		return 2 * (y*math.Log(y/mu) - (y - mu))
	case NegativeBinomial:
		if alpha <= 0 {
			return unitDeviance(Poisson, 0, y, mu)
		}
		ia := 1 / alpha
		t2 := (y + ia) * math.Log((y+ia)/(mu+ia))
		if y == 0 {
			return -2 * t2 // y*log(y/mu) -> 0 as y -> 0
		}
		return 2 * (y*math.Log(y/mu) - t2)
	}
	return 0
}
