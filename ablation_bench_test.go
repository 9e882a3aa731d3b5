package poise_test

import (
	"testing"

	"poise/internal/poise"
	"poise/internal/sim"
)

// Ablation benchmarks for the design choices DESIGN.md calls out beyond
// the paper's own figures: the fallback guard and the pure-prediction
// mode, measured on one throttle-friendly workload (ii) and one
// TLP-loving workload (kmeans) where the two mechanisms pull in
// opposite directions.

func ablationRun(b *testing.B, workload string, mutate func(*poise.Policy)) float64 {
	b.Helper()
	h := benchHarness()
	w := h.Cat.Must(workload)
	gto, err := sim.RunWorkload(h.Cfg, w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pol, err := h.PoisePolicy()
	if err != nil {
		b.Fatal(err)
	}
	if mutate != nil {
		mutate(pol)
	}
	res, err := sim.RunWorkload(h.Cfg, w, pol, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if gto.IPC == 0 {
		return 0
	}
	return res.IPC / gto.IPC
}

// BenchmarkAblationFallbackGuard compares the paper-exact HIE
// (NoFallback) with the guarded one on the workload class the guard
// exists for.
func BenchmarkAblationFallbackGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guarded := ablationRun(b, "kmeans", nil)
		pure := ablationRun(b, "kmeans", func(p *poise.Policy) { p.NoFallback = true })
		b.ReportMetric(guarded, "kmeans-guarded-x")
		b.ReportMetric(pure, "kmeans-paperexact-x")
	}
}

// BenchmarkAblationGuardCostOnWins verifies the guard does not tax the
// workloads Poise is built for.
func BenchmarkAblationGuardCostOnWins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guarded := ablationRun(b, "ii", nil)
		pure := ablationRun(b, "ii", func(p *poise.Policy) { p.NoFallback = true })
		b.ReportMetric(guarded, "ii-guarded-x")
		b.ReportMetric(pure, "ii-paperexact-x")
	}
}

// BenchmarkAblationLocalSearch isolates the local search's contribution
// on top of raw predictions (the Fig. 11 (0,0) point, per workload).
func BenchmarkAblationLocalSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withSearch := ablationRun(b, "mm", nil)
		noSearch := ablationRun(b, "mm", func(p *poise.Policy) { p.Params.StrideN, p.Params.StrideP = 0, 0 })
		b.ReportMetric(withSearch, "mm-search-x")
		b.ReportMetric(noSearch, "mm-predictonly-x")
	}
}
