// Package stats provides the small statistical toolkit used across the
// reproduction: means (the paper reports harmonic means for speedups and
// arithmetic means for rates), quantiles, and a fast deterministic PRNG
// used by the synthetic workloads so that every simulation is
// reproducible from Config.Seed.
package stats

import (
	"errors"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs. It returns an error if
// any value is non-positive, since the harmonic mean is undefined there.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: harmonic mean of empty slice")
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: harmonic mean requires positive values")
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv, nil
}

// Quantile returns the q-th quantile (0<=q<=1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
