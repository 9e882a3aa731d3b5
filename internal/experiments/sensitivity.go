package experiments

import "poise/internal/stats"

// The ratio figures (Figs. 11, 12, 13, 15 and 16). Each is one
// assembly over an experiment grid's cells (GridCells): the columns
// its declaration gives (grid.go), each a ratio of IPCs per workload
// and its harmonic mean.

// RatioTable is a ratio figure: per workload and column, the mean IPC
// of the column's schemes over its baseline's, and each column's
// harmonic mean over the workloads.
type RatioTable struct {
	Columns   []string
	Workloads []string
	Ratio     [][]float64 // [workload][column]
	HMean     []float64   // [column]
}

// Fig11 is the local-search stride sensitivity: Poise over GTO at each
// stride (εN, εp), the pure-prediction (0, 0) included.
func (h *Harness) Fig11() (*RatioTable, error) { return h.ratios("stride") }

// Fig12 is the L1 size sensitivity: Poise over GTO on grown,
// linear-indexed L1s, the model still trained on the 16 KB hashed one.
func (h *Harness) Fig12() (*RatioTable, error) { return h.ratios("cachesize") }

// Fig13 is the feature ablation: the model retrained without one
// feature over the full model, both without local search. The
// retrained models build once per process behind a single-flight
// cache, so cells share them at any worker count.
func (h *Harness) Fig13() (*RatioTable, error) { return h.ratios("ablation") }

// Fig15 is APCM, random-restart search (the mean of its trials) and
// Poise over GTO.
func (h *Harness) Fig15() (*RatioTable, error) { return h.ratios("alternatives") }

// Fig16 is Poise and the 64x-L1 Pbest probe over GTO on the
// compute-intensive workloads: Poise's cut-off must keep its overhead
// low there.
func (h *Harness) Fig16() (*RatioTable, error) { return h.ratios("compute") }

// ratios assembles the ratio figure of a grid from its cells.
func (h *Harness) ratios(grid string) (*RatioTable, error) {
	d, err := lookupGrid(grid)
	if err != nil {
		return nil, err
	}
	cols := d.axis(h).columns
	cells, err := h.GridCells(grid)
	if err != nil {
		return nil, err
	}
	idx := indexCells(cells)
	rt := &RatioTable{}
	for _, c := range cols {
		rt.Columns = append(rt.Columns, c.label)
	}
	for _, wl := range d.workloads(h) {
		row := make([]float64, len(cols))
		for j, c := range cols {
			den, err := idx.get(wl.Name, c.den)
			if err != nil {
				return nil, err
			}
			var ipc float64
			for _, ord := range c.num {
				n, err := idx.get(wl.Name, ord)
				if err != nil {
					return nil, err
				}
				ipc += n.Result.IPC
			}
			row[j] = ratio(ipc/float64(len(c.num)), den.Result.IPC)
		}
		rt.Workloads = append(rt.Workloads, wl.Name)
		rt.Ratio = append(rt.Ratio, row)
	}
	for j := range cols {
		col := make([]float64, len(rt.Ratio))
		for i, row := range rt.Ratio {
			col[i] = row[j]
		}
		rt.HMean = append(rt.HMean, hmean(col))
	}
	return rt, nil
}

// hmean is the harmonic mean the paper reports speedups by, or the
// arithmetic mean where the harmonic one is undefined (a value at or
// below zero).
func hmean(xs []float64) float64 {
	if m, err := stats.HarmonicMean(xs); err == nil {
		return m
	}
	return stats.Mean(xs)
}

func ratio(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}
