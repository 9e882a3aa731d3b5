package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"poise/internal/stats"
)

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocMB runs fn and returns the megabytes it allocated
// (runtime.MemStats.TotalAlloc). A collection runs first so one pass's
// garbage is not collected on the next one's time.
func allocMB(fn func() error) (float64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, err
}

// costs returns, pass by pass, the wall and CPU seconds of the units
// called name (of every unit when name is empty), calibrated: divided
// by the slowdown the yardstick saw during that pass. raw are the wall
// seconds as measured.
//
// On a shared box neither the median over passes nor the fastest pass
// is steady: what the neighbours do moves both by tens of percent for
// minutes at a time. The yardstick runs for a tenth of the time between
// the units of the pass it calibrates, so it sees the machine the pass
// saw; the quotient moved by 2-4 % where host time moved by 20-60 %
// (README.md, "Noise").
func costs(ps []timedPass, name string) (wall, cpu, raw []float64) {
	for _, p := range ps {
		var w, c float64
		for _, u := range p.units {
			if name == "" || u.Name == name {
				w += u.WallS
				c += u.CPUS
			}
		}
		wall, cpu, raw = append(wall, w/p.slowdown), append(cpu, c/p.slowdown), append(raw, w)
	}
	return wall, cpu, raw
}

// costOf is the median over passes of costs: what the per-layer rows
// that time a unit report.
type costOf func(name string) (wall, cpu float64)

func medianCosts(ps []timedPass) costOf {
	return func(name string) (float64, float64) {
		wall, cpu, _ := costs(ps, name)
		return median(wall), median(cpu)
	}
}

// dist summarises the per-pass values of one metric. The reported
// value is the median; quartiles need at least 5 samples, below that
// Q1/Q3 fall back to min/max as the issue's reporting rule says.
type dist struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarise(unit string, xs []float64) dist {
	d := dist{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) == 0 {
		d.Value = math.NaN()
		return d
	}
	d.Value, d.Min, d.Max = median(xs), slices.Min(xs), slices.Max(xs)
	d.Q1, d.Q3 = d.Min, d.Max
	if len(xs) >= 5 {
		d.Q1, d.Q3 = stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75)
	}
	return d
}

// exact wraps a value that repeats bit-for-bit at a fixed seed.
func exact(unit string, v float64) dist {
	return dist{Value: v, Unit: unit, N: 1, Q1: v, Q3: v, Min: v, Max: v}
}

// median is NaN for no samples, so that a metric nothing fed fails the
// completeness check instead of reading 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Quantile(xs, 0.5)
}

// spread is the quartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.Value == 0 {
		return 0
	}
	return math.Abs(d.Q3-d.Q1) / math.Abs(d.Value)
}

// timeN runs fn n times and returns the median nanoseconds per call.
// The probes use it on fixed-count loops, so a layer's cost is read
// the same way on every run.
func timeN(n int, fn func()) float64 {
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0))
	}
	return median(ns)
}
