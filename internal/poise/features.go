package poise

import (
	"fmt"

	"poise/internal/cache"
	"poise/internal/sm"
)

// NumFeatures is the length of the feature vector X (paper Table II):
// seven measured features plus the constant intercept x8.
const NumFeatures = 8

// Vector is one feature vector X.
type Vector [NumFeatures]float64

// FeatureNames labels the features in Table II order.
var FeatureNames = [NumFeatures]string{
	"ho", "h'", "eta_o", "eta'", "(eta'-eta_o)^2", "In*(eta'-eta_o)^2",
	"(L'm'-moLo)^2/1e4", "1",
}

// Window is one feature-sampling window: the per-SM counter deltas
// taken over Tfeature cycles at a fixed warp-tuple. The paper's HIE
// budgets seven 32-bit performance counters per SM for this.
type Window struct {
	HitRate      float64 // net L1 hit rate h
	IntraRate    float64 // intra-warp hit rate eta (intra hits / accesses)
	AML          float64 // average memory latency of L1 misses
	InstrPerLoad float64 // dynamic In
}

// WindowFrom converts raw counter deltas into a Window.
func WindowFrom(l1 cache.Stats, c sm.Counters) Window {
	return Window{
		HitRate:      l1.HitRate(),
		IntraRate:    l1.IntraWarpHitRate(),
		AML:          c.AML(),
		InstrPerLoad: c.InstrPerLoad(),
	}
}

// maxIn caps the dynamic In used inside x6 so the feature stays in a
// sane numeric range; kernels with In beyond the compute-intensive
// cut-off never reach feature evaluation anyway.
const maxIn = 256

// Features assembles the Table II feature vector from the baseline
// window (sampled at the maximum tuple) and the reference window
// (sampled at (1, 1)).
func Features(base, ref Window) Vector {
	ho := base.HitRate
	hPrime := ref.HitRate
	etaO := base.IntraRate
	etaPrime := ref.IntraRate
	dEta := etaPrime - etaO
	in := base.InstrPerLoad
	if in > maxIn {
		in = maxIn
	}
	mo := 1 - ho
	mPrime := 1 - hPrime
	lat := ref.AML*mPrime - base.AML*mo

	return Vector{
		ho,
		hPrime,
		etaO,
		etaPrime,
		dEta * dEta,
		in * dEta * dEta,
		lat * lat / 1e4,
		1,
	}
}

func (v Vector) String() string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.4g", FeatureNames[i], x)
	}
	return s + "]"
}
