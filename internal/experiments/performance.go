package experiments

import (
	"poise/internal/energy"
	"poise/internal/stats"
)

// SchemeNames lists the Fig. 7/8/9 comparison schemes in paper order:
// the names of the "scheme" grid's axis (comparison), whose cell plans
// enumerate workload-major with schemes in exactly this order.
var SchemeNames = func() []string {
	var names []string
	for _, s := range comparison {
		names = append(names, s.name)
	}
	return names
}()

// PerfRow carries one workload's results across all schemes.
type PerfRow struct {
	Workload string
	// Indexed like SchemeNames.
	IPC     []float64
	Speedup []float64 // IPC normalised to GTO
	HitRate []float64 // absolute L1 hit rate
	AML     []float64 // normalised to GTO
	// Poise-only extras.
	DispN, DispP, DispE    float64 // Fig. 10 displacements
	EnergyGTO, EnergyPoise float64 // mJ, Fig. 14
}

// PerfSummary aggregates Fig. 7-10 and Fig. 14 data.
type PerfSummary struct {
	Rows []PerfRow
	// HMeanSpeedup per scheme (paper reports harmonic means for IPC).
	HMeanSpeedup []float64
	// AMeanHitRate and AMeanAML per scheme (arithmetic means).
	AMeanHitRate []float64
	AMeanAML     []float64
	// Fig. 10 means.
	MeanDispN, MeanDispP, MeanDispE float64
	// Fig. 14 mean normalised Poise energy.
	MeanEnergyRatio float64
}

// Performance produces the data behind Figs. 7 (IPC), 8 (L1 hit rate),
// 9 (AML), 10 (search displacement) and 14 (energy). The workload x
// scheme grid runs through the unified gridplan pipeline (GridCells):
// cells fan out across the worker pool on pooled GPUs in process, or
// load from the merged results cache after a fleet campaign —
// bit-identical either way — and this method is pure
// assembly over them, aggregating rows in paper order.
func (h *Harness) Performance() (*PerfSummary, error) {
	cells, err := h.GridCells("scheme")
	if err != nil {
		return nil, err
	}
	idx := indexCells(cells)
	em := energy.Default()

	sum := &PerfSummary{}
	for _, w := range h.EvalWorkloads() {
		row := PerfRow{Workload: w.Name}
		gto, err := idx.get(w.Name, 0) // the baseline leads the axis
		if err != nil {
			return nil, err
		}
		row.EnergyGTO = em.OfWorkload(gto.Result, h.Cfg.NumSMs).Total()
		for ord, s := range comparison {
			c, err := idx.get(w.Name, ord)
			if err != nil {
				return nil, err
			}
			if s.name == poiseScheme.name {
				row.EnergyPoise = em.OfWorkload(c.Result, h.Cfg.NumSMs).Total()
				if c.HasDisp {
					row.DispN, row.DispP, row.DispE = c.DispN, c.DispP, c.DispE
				}
			}
			row.IPC = append(row.IPC, c.Result.IPC)
			row.Speedup = append(row.Speedup, ratio(c.Result.IPC, gto.Result.IPC))
			row.HitRate = append(row.HitRate, c.Result.L1.HitRate())
			row.AML = append(row.AML, ratio(c.Result.AML, gto.Result.AML))
		}
		sum.Rows = append(sum.Rows, row)
	}

	for si := range comparison {
		var sp, hr, aml []float64
		for _, r := range sum.Rows {
			sp = append(sp, r.Speedup[si])
			hr = append(hr, r.HitRate[si])
			aml = append(aml, r.AML[si])
		}
		sum.HMeanSpeedup = append(sum.HMeanSpeedup, hmean(sp))
		sum.AMeanHitRate = append(sum.AMeanHitRate, stats.Mean(hr))
		sum.AMeanAML = append(sum.AMeanAML, stats.Mean(aml))
	}
	var dn, dp, de, er []float64
	for _, r := range sum.Rows {
		dn = append(dn, r.DispN)
		dp = append(dp, r.DispP)
		de = append(de, r.DispE)
		er = append(er, ratio(r.EnergyPoise, r.EnergyGTO))
	}
	sum.MeanDispN, sum.MeanDispP, sum.MeanDispE = stats.Mean(dn), stats.Mean(dp), stats.Mean(de)
	sum.MeanEnergyRatio = stats.Mean(er)
	return sum, nil
}
