package experiments

import (
	"context"

	"poise/internal/poise"
	"poise/internal/runner"
	"poise/internal/trace"
)

// TableIIResult carries the trained feature weights (the reproduction's
// Table II) and the offline prediction-error figures of §VII-B.
type TableIIResult struct {
	Weights poise.Weights
	// Offline prediction error on the evaluation kernels (the paper
	// reports 16% for N and 26% for p).
	ErrN, ErrP float64
	// Admission statistics.
	Admitted, RejSpeedup, RejCycles, RejHitRate int
}

// TableII builds the training dataset, reports the model the harness
// runs (ModelWeights) and evaluates its offline prediction accuracy on
// profiled evaluation kernels (which are never part of training).
func (h *Harness) TableII() (*TableIIResult, error) {
	ds, err := h.Dataset()
	if err != nil {
		return nil, err
	}
	w, err := h.ModelWeights()
	if err != nil {
		return nil, err
	}
	res := &TableIIResult{
		Weights:    w,
		Admitted:   len(ds.Samples),
		RejSpeedup: ds.RejectedSpeedup,
		RejCycles:  ds.RejectedCycles,
		RejHitRate: ds.RejectedHitRate,
	}
	holdout, err := h.holdout()
	if err != nil {
		return nil, err
	}
	res.ErrN, res.ErrP = poise.EvaluateOffline(w, holdout)
	return res, nil
}

// holdout is Table II's offline-accuracy set: the first kernel of every
// (unseen) evaluation workload with its scored target on the eval sweep
// and its feature vector. The feature runs are corners of that sweep,
// answered by the harness's run memo when it ran them.
func (h *Harness) holdout() ([]poise.Sample, error) {
	var firsts []*trace.Kernel
	for _, wl := range h.EvalWorkloads() {
		firsts = append(firsts, wl.Kernels[0])
	}
	opts := h.sweepOptions(false)
	prs, err := h.profilesOf(firsts, opts)
	if err != nil {
		return nil, err
	}
	return runner.MapSlice(h.ctx(), h.Opt.Workers, firsts,
		func(_ context.Context, _ int, k *trace.Kernel) (poise.Sample, error) {
			target, _ := prs[k.Name].BestScore(h.Params)
			x, err := poise.MeasureFeatures(h.Cfg, k, opts)
			if err != nil {
				return poise.Sample{}, err
			}
			return poise.Sample{
				Kernel: k.Name, X: x,
				RawN: target.N, RawP: target.P, MaxN: prs[k.Name].MaxN,
			}, nil
		})
}

// PbestRow is one workload of Table IIIa: the 64x-L1 speedup that
// classifies memory sensitivity.
type PbestRow struct {
	Workload        string
	Kernels         int
	Pbest           float64
	MemorySensitive bool
}

// TableIII measures Pbest for every workload in the catalogue: the
// speedup of the GTO baseline when the L1 grows 64x, via the "pbest"
// experiment grid (ingested trace workloads classify alongside the
// catalogue). The paper calls a workload memory-sensitive when Pbest
// exceeds 1.4.
func (h *Harness) TableIII() ([]PbestRow, error) {
	rt, err := h.ratios("pbest")
	if err != nil {
		return nil, err
	}
	var rows []PbestRow
	for i, w := range h.pbestWorkloads() {
		pb := rt.Ratio[i][0]
		rows = append(rows, PbestRow{
			Workload:        w.Name,
			Kernels:         len(w.Kernels),
			Pbest:           pb,
			MemorySensitive: pb > 1.4,
		})
	}
	return rows, nil
}

// HardwareCost reproduces the §VII-I storage accounting: the per-SM
// state Poise adds. The numbers are structural properties of the
// design, so this is an accounting function rather than a measurement.
type HardwareCost struct {
	CounterBytes   int // seven 32-bit performance counters
	FSMBytes       int // two 3-bit state registers (rounded up)
	VitalBits      int // one per warp
	PolluteBits    int // one per warp
	WeightBytes    int // feature weights (shipped via constant memory)
	TotalPerSM     float64
	TotalChipBytes float64
	SMs            int
}

// Cost computes the hardware budget for the configured GPU.
func (h *Harness) Cost() HardwareCost {
	warps := h.Cfg.MaxWarpsPerSM()
	c := HardwareCost{
		CounterBytes: 7 * 4,
		FSMBytes:     1, // two 3-bit registers fit in a byte
		VitalBits:    warps,
		PolluteBits:  warps,
		SMs:          h.Cfg.NumSMs,
	}
	// The weights live in constant memory (already present); per-SM
	// storage counts the counters, FSM and scheduler-queue bits, as in
	// the paper's 40.75 B/SM figure.
	c.TotalPerSM = float64(c.CounterBytes+c.FSMBytes) +
		float64(c.VitalBits+c.PolluteBits)/8
	c.TotalChipBytes = c.TotalPerSM * float64(c.SMs)
	c.WeightBytes = poise.NumFeatures * 2 * 4 // two fp32 vectors
	return c
}
