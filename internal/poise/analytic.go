// Package poise implements the paper's contribution: the machine
// learning framework (analytical feature model, Eq. 12 target scoring,
// target scaling, Negative Binomial training pipeline) and the hardware
// inference engine (HIE) that predicts and locally searches warp-tuples
// at runtime.
package poise

import "math"

// The analytical model of paper §V-A. These functions exist for two
// reasons: they document how the feature vector was derived, and they
// let tests check that the model's speedup criterion (µ > 1) agrees
// with simulated speedups. The hardware never evaluates them — it
// samples the observable proxies listed in Table Ib.

// ModelInput bundles the observables of Table Ia.
type ModelInput struct {
	N     int     // vital warps
	P     int     // cache-polluting warps
	Kmshr int     // L1 MSHR entries
	Tpipe float64 // pipelined execution cycles per warp instruction
	Id    float64 // instructions eligible per hit until the next hazard

	Ho  float64 // net L1 hit rate, baseline (= 1 - Mo)
	Hp  float64 // hit rate of the p polluting warps under {N, p}
	Hnp float64 // hit rate of the N-p non-polluting warps under {N, p}

	Lo     float64 // average memory latency, baseline
	Lprime float64 // average memory latency under {N, p}
}

// TMem is Eq. 1: effective memory latency for a load miss executed
// concurrently across n warps with miss rate mo, MSHR-limited.
func TMem(n int, mo, lo float64, kmshr int) float64 {
	if kmshr <= 0 {
		kmshr = 1
	}
	return lo * math.Ceil(float64(n)*mo/float64(kmshr))
}

// TBusy is Eq. 2: cycles of useful work enabled by L1 hits.
func TBusy(n int, ho, id, tpipe float64) float64 {
	return float64(n) * ho * id * tpipe
}

// TStall is Eq. 3: exposed memory stall cycles.
func TStall(tmem, tbusy float64) float64 {
	return math.Max(tmem-tbusy, 0)
}

// TMemReduced is Eq. 4: effective latency when only p of N warps
// pollute; mp and mnp are the miss rates of the two warp classes.
func TMemReduced(n, p int, mp, mnp, lprime float64, kmshr int) float64 {
	if kmshr <= 0 {
		kmshr = 1
	}
	return lprime * math.Ceil((mnp*float64(n-p)+mp*float64(p))/float64(kmshr))
}

// TBusyReduced is Eq. 5.
func TBusyReduced(n, p int, hp, hnp, id, tpipe float64) float64 {
	return (float64(p)*hp + float64(n-p)*hnp) * id * tpipe
}

// Mu is Eq. 8/9: the coefficient of goodness of the warp-tuple. The
// tuple is predicted to speed the kernel up when Mu > 1.
func (in ModelInput) Mu() float64 {
	mo := 1 - in.Ho
	mp := 1 - in.Hp
	mnp := 1 - in.Hnp
	k := float64(in.Kmshr)
	if k <= 0 {
		k = 1
	}
	dBusyP := float64(in.P) * (in.Hp - in.Ho) * in.Id * in.Tpipe
	dBusyNP := float64(in.N-in.P) * (in.Hnp - in.Ho) * in.Id * in.Tpipe
	// Eq. 9 drops the ceil for tractability, as the paper notes.
	dMemP := float64(in.P) * (mp*in.Lprime - mo*in.Lo) / k
	dMemNP := float64(in.N-in.P) * (mnp*in.Lprime - mo*in.Lo) / k
	den := dMemP + dMemNP
	if den == 0 {
		if dBusyP+dBusyNP > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return (dBusyP + dBusyNP) / den
}

// MuPNP is Eq. 11: the conservative objective µ_{p/np} the feature
// vector was derived from — the busy-cycle gain of the polluting warps
// against the memory-latency cost borne by the non-polluting warps.
func (in ModelInput) MuPNP() float64 {
	mo := 1 - in.Ho
	mnp := 1 - in.Hnp
	dh := in.Hp - in.Ho
	den := mnp*in.Lprime - mo*in.Lo
	if in.N == in.P || den == 0 {
		if dh > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return (in.Tpipe * float64(in.Kmshr)) *
		(float64(in.P) / float64(in.N-in.P)) *
		(in.Id * dh / den)
}

// SpeedupPredicted applies the Eq. 7 criterion using the full stall
// model (Eqs. 1-6): true when the tuple's stall cycles drop below the
// baseline's.
func (in ModelInput) SpeedupPredicted() bool {
	mo := 1 - in.Ho
	base := TStall(TMem(in.N, mo, in.Lo, in.Kmshr), TBusy(in.N, in.Ho, in.Id, in.Tpipe))
	mp := 1 - in.Hp
	mnp := 1 - in.Hnp
	red := TStall(
		TMemReduced(in.N, in.P, mp, mnp, in.Lprime, in.Kmshr),
		TBusyReduced(in.N, in.P, in.Hp, in.Hnp, in.Id, in.Tpipe),
	)
	return red < base
}
