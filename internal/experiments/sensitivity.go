package experiments

import (
	"fmt"

	"poise/internal/stats"
)

// The sensitivity figures (Fig. 11-16). Like the Fig. 7/8/9 scheme
// comparison, every figure here is assembly over an experiment grid
// run through the unified gridplan pipeline (GridCells) — servable to
// a fleet, pool-backed, and bit-identical at any worker or process
// count. The bespoke per-figure fan-out loops this file used to
// contain live on only as grid definitions in grid.go.

// StrideResult backs Fig. 11: harmonic-mean speedup over GTO for each
// local-search stride setting.
type StrideResult struct {
	Strides [][2]int
	// PerWorkload[i][j] = speedup of workload i under stride j.
	Workloads   []string
	PerWorkload [][]float64
	HMean       []float64
}

// Fig11 sweeps the local-search stride (εN, εp) over the paper's five
// settings, including the pure-prediction (0, 0) case, via the
// "stride" experiment grid.
func (h *Harness) Fig11() (*StrideResult, error) {
	cells, err := h.GridCells("stride")
	if err != nil {
		return nil, err
	}
	idx := indexCells(cells)
	out := &StrideResult{Strides: append([][2]int(nil), strideSettings...)}
	evalSet := h.EvalWorkloads()
	for _, wl := range evalSet {
		out.Workloads = append(out.Workloads, wl.Name)
		out.PerWorkload = append(out.PerWorkload, make([]float64, len(strideSettings)))
	}
	for sj, st := range strideSettings {
		var sp []float64
		for wi, wl := range evalSet {
			gto, err := idx.get(wl.Name, "GTO")
			if err != nil {
				return nil, err
			}
			c, err := idx.get(wl.Name, strideScheme(st))
			if err != nil {
				return nil, err
			}
			s := ratio(c.Result.IPC, gto.Result.IPC)
			out.PerWorkload[wi][sj] = s
			sp = append(sp, s)
		}
		hm, err := stats.HarmonicMean(sp)
		if err != nil {
			hm = stats.Mean(sp)
		}
		out.HMean = append(out.HMean, hm)
	}
	return out, nil
}

// CacheSizeResult backs Fig. 12: Poise speedup (vs the same-config GTO)
// when the evaluation platform's L1 grows and switches to linear
// indexing, while the model stays trained on the 16 KB hashed baseline.
type CacheSizeResult struct {
	SizesKB   []int
	Workloads []string
	Speedup   [][]float64 // [workload][size]
	HMean     []float64
}

// Fig12 re-evaluates the trained model on altered cache architectures
// via the "cachesize" experiment grid: one GTO and one Poise cell per
// (workload, size), each on the altered configuration.
func (h *Harness) Fig12() (*CacheSizeResult, error) {
	cells, err := h.GridCells("cachesize")
	if err != nil {
		return nil, err
	}
	idx := indexCells(cells)
	evalSet := h.EvalWorkloads()
	out := &CacheSizeResult{SizesKB: append([]int(nil), cacheSizesKB...)}
	for _, wl := range evalSet {
		out.Workloads = append(out.Workloads, wl.Name)
		out.Speedup = append(out.Speedup, make([]float64, len(cacheSizesKB)))
	}
	for si, kb := range cacheSizesKB {
		var sp []float64
		for wi, wl := range evalSet {
			gto, err := idx.get(wl.Name, fmt.Sprintf("GTO-%dKB", kb))
			if err != nil {
				return nil, err
			}
			po, err := idx.get(wl.Name, fmt.Sprintf("Poise-%dKB", kb))
			if err != nil {
				return nil, err
			}
			s := ratio(po.Result.IPC, gto.Result.IPC)
			out.Speedup[wi][si] = s
			sp = append(sp, s)
		}
		hm, err := stats.HarmonicMean(sp)
		if err != nil {
			hm = stats.Mean(sp)
		}
		out.HMean = append(out.HMean, hm)
	}
	return out, nil
}

// FeatureAblationResult backs Fig. 13: speedup of a model retrained
// without one feature, relative to the full model, both without local
// search (isolating prediction accuracy).
type FeatureAblationResult struct {
	Dropped   []int // feature indices, Table II x3..x7 = 2..6
	Workloads []string
	// Relative[i][j]: workload i, dropped feature j, normalised to the
	// all-features model.
	Relative [][]float64
	HMean    []float64
}

// Fig13 retrains with one feature removed (x3, x4, x5, x6, x7 — the
// paper omits x1/x2 as represented within x7) and measures prediction
// quality without the local-search safety net, via the "ablation"
// experiment grid. The retrained models build once per process behind
// a single-flight cache, so cells share them at any worker count.
func (h *Harness) Fig13() (*FeatureAblationResult, error) {
	cells, err := h.GridCells("ablation")
	if err != nil {
		return nil, err
	}
	idx := indexCells(cells)
	evalSet := h.EvalWorkloads()
	out := &FeatureAblationResult{Dropped: append([]int(nil), fig13Dropped...)}
	for _, wl := range evalSet {
		out.Workloads = append(out.Workloads, wl.Name)
		out.Relative = append(out.Relative, make([]float64, len(fig13Dropped)))
	}
	for dj, d := range fig13Dropped {
		var rel []float64
		for wi, wl := range evalSet {
			base, err := idx.get(wl.Name, "full")
			if err != nil {
				return nil, err
			}
			c, err := idx.get(wl.Name, dropScheme(d))
			if err != nil {
				return nil, err
			}
			r := ratio(c.Result.IPC, base.Result.IPC)
			out.Relative[wi][dj] = r
			rel = append(rel, r)
		}
		hm, err := stats.HarmonicMean(rel)
		if err != nil {
			hm = stats.Mean(rel)
		}
		out.HMean = append(out.HMean, hm)
	}
	return out, nil
}

// AlternativesResult backs Fig. 15: Poise against APCM and
// random-restart stochastic search, normalised to GTO.
type AlternativesResult struct {
	Workloads []string
	APCM      []float64
	Random    []float64
	Poise     []float64
	HMean     [3]float64 // APCM, Random, Poise
}

// Fig15 compares Poise with the cache-bypassing and stochastic-search
// alternatives via the "alternatives" experiment grid. Each
// random-restart trial is its own cell whose seed is a pure function
// of (Options.Seed, trial index), so results don't depend on which
// worker — or which process — runs it; the trials average at
// assembly time.
func (h *Harness) Fig15() (*AlternativesResult, error) {
	cells, err := h.GridCells("alternatives")
	if err != nil {
		return nil, err
	}
	idx := indexCells(cells)
	out := &AlternativesResult{}
	var apcmS, rndS, poiseS []float64
	for _, wl := range h.EvalWorkloads() {
		gto, err := idx.get(wl.Name, "GTO")
		if err != nil {
			return nil, err
		}
		ap, err := idx.get(wl.Name, "APCM")
		if err != nil {
			return nil, err
		}
		po, err := idx.get(wl.Name, "Poise")
		if err != nil {
			return nil, err
		}
		var rndIPC float64
		for i := 1; i <= h.Opt.RandomSeeds; i++ {
			r, err := idx.get(wl.Name, fmt.Sprintf("random-%d", i))
			if err != nil {
				return nil, err
			}
			rndIPC += r.Result.IPC
		}
		rndIPC /= float64(h.Opt.RandomSeeds)

		a := ratio(ap.Result.IPC, gto.Result.IPC)
		r := ratio(rndIPC, gto.Result.IPC)
		p := ratio(po.Result.IPC, gto.Result.IPC)
		out.Workloads = append(out.Workloads, wl.Name)
		out.APCM = append(out.APCM, a)
		out.Random = append(out.Random, r)
		out.Poise = append(out.Poise, p)
		apcmS = append(apcmS, a)
		rndS = append(rndS, r)
		poiseS = append(poiseS, p)
	}
	for i, s := range [][]float64{apcmS, rndS, poiseS} {
		hm, err := stats.HarmonicMean(s)
		if err != nil {
			hm = stats.Mean(s)
		}
		out.HMean[i] = hm
	}
	return out, nil
}

// ComputeResult backs Fig. 16: memory-insensitive workloads under GTO,
// Poise and the 64x-L1 Pbest probe.
type ComputeResult struct {
	Workloads  []string
	Poise      []float64 // vs GTO
	Pbest      []float64 // vs GTO
	HMeanPoise float64
}

// Fig16 verifies Poise's compute-intensive cut-off keeps overhead low,
// via the "compute" experiment grid.
func (h *Harness) Fig16() (*ComputeResult, error) {
	cells, err := h.GridCells("compute")
	if err != nil {
		return nil, err
	}
	idx := indexCells(cells)
	out := &ComputeResult{}
	var ps []float64
	for _, wl := range h.Cat.ComputeSet() {
		gto, err := idx.get(wl.Name, "GTO")
		if err != nil {
			return nil, err
		}
		po, err := idx.get(wl.Name, "Poise")
		if err != nil {
			return nil, err
		}
		pb, err := idx.get(wl.Name, "Pbest")
		if err != nil {
			return nil, err
		}
		out.Workloads = append(out.Workloads, wl.Name)
		out.Poise = append(out.Poise, ratio(po.Result.IPC, gto.Result.IPC))
		out.Pbest = append(out.Pbest, ratio(pb.Result.IPC, gto.Result.IPC))
		ps = append(ps, ratio(po.Result.IPC, gto.Result.IPC))
	}
	hm, err := stats.HarmonicMean(ps)
	if err != nil {
		hm = stats.Mean(ps)
	}
	out.HMeanPoise = hm
	return out, nil
}
