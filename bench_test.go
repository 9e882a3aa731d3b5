// Benchmarks regenerating the paper's evaluation: one benchmark per
// table/figure of §VII. Each reports the figure's headline statistic
// via b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness. Profiles are cached under .poise-cache: the
// first run sweeps the {N, p} spaces (minutes), later runs are fast.
//
// The full pretty-printed tables come from `go run ./cmd/poisebench`.
package poise_test

import (
	"sync"
	"testing"

	"poise/internal/experiments"
)

var (
	benchOnce sync.Once
	benchH    *experiments.Harness
)

// benchHarness shares one harness (and its profile/weight caches)
// across all benchmarks in the binary.
func benchHarness() *experiments.Harness {
	benchOnce.Do(func() {
		benchH = experiments.NewHarness(experiments.Options{
			SMs:      8,
			CacheDir: ".poise-cache",
		})
	})
	return benchH
}

func BenchmarkTableIIIPbest(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		rows, err := h.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		var maxPb float64
		sensitive := 0
		for _, r := range rows {
			if r.Pbest > maxPb {
				maxPb = r.Pbest
			}
			if r.MemorySensitive {
				sensitive++
			}
		}
		b.ReportMetric(maxPb, "max-Pbest")
		b.ReportMetric(float64(sensitive), "memory-sensitive")
	}
}

func BenchmarkFig2SolutionSpace(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		sp, err := h.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sp.CCWS.Speedup, "ccws-x")
		b.ReportMetric(sp.PCAL.Speedup, "pcal-x")
		b.ReportMetric(sp.Max.Speedup, "max-x")
	}
}

func BenchmarkFig4HitRates(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		rows, err := h.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "ii" {
				b.ReportMetric(100*r.Hp, "ii-hp-%")
				b.ReportMetric(r.IntraPct, "ii-intra-%")
			}
			if r.Workload == "cfd" {
				b.ReportMetric(r.InterPct, "cfd-inter-%")
			}
		}
	}
}

func BenchmarkFig5Scoring(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		rows, err := h.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].PerfAtMaxScore, "scored-x")
		b.ReportMetric(rows[0].MaxPerf.Speedup, "peak-x")
	}
}

func BenchmarkTableIIWeights(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := h.TableII()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.ErrN, "errN-%")
		b.ReportMetric(100*res.ErrP, "errP-%")
		b.ReportMetric(float64(res.Admitted), "kernels")
	}
}

// BenchmarkFig7Performance also covers Figs. 8-10 and 14 (they share
// the same runs).
func BenchmarkFig7Performance(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		sum, err := h.Performance()
		if err != nil {
			b.Fatal(err)
		}
		for si, name := range experiments.SchemeNames {
			b.ReportMetric(sum.HMeanSpeedup[si], "hmean-"+name)
		}
		b.ReportMetric(sum.MeanDispE, "fig10-euclid")
		b.ReportMetric(sum.MeanEnergyRatio, "fig14-energy")
	}
}

// benchmarkRatios reports a ratio figure's H-mean per column, under the
// column's own label.
func benchmarkRatios(b *testing.B, fig func(*experiments.Harness) (*experiments.RatioTable, error)) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := fig(h)
		if err != nil {
			b.Fatal(err)
		}
		for j, label := range res.Columns {
			b.ReportMetric(res.HMean[j], "hmean-"+label)
		}
	}
}

func BenchmarkFig11Stride(b *testing.B) { benchmarkRatios(b, (*experiments.Harness).Fig11) }

func BenchmarkFig12CacheSize(b *testing.B) { benchmarkRatios(b, (*experiments.Harness).Fig12) }

func BenchmarkFig13Features(b *testing.B) { benchmarkRatios(b, (*experiments.Harness).Fig13) }

func BenchmarkFig15Alternatives(b *testing.B) { benchmarkRatios(b, (*experiments.Harness).Fig15) }

func BenchmarkFig16ComputeIntensive(b *testing.B) { benchmarkRatios(b, (*experiments.Harness).Fig16) }

func BenchmarkFig17CaseStudy(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig17()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Predicted)), "predictions")
		b.ReportMetric(float64(len(res.Converged)), "converged")
	}
}
