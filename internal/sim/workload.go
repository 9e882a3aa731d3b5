package sim

import (
	"errors"
	"fmt"

	"poise/internal/cache"
	"poise/internal/trace"
)

// Workload is an application: a named sequence of kernels run
// back-to-back, like the multi-kernel CUDA benchmarks of the paper
// (e.g. ii runs 118 kernels). Metrics aggregate across kernels.
type Workload struct {
	Name    string
	Kernels []*trace.Kernel
	// MemorySensitive mirrors the paper's Pbest > 1.4 classification;
	// set by the workload catalogue for reporting.
	MemorySensitive bool
}

// Validate checks every kernel.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return errors.New("sim: workload needs a name")
	}
	if len(w.Kernels) == 0 {
		return fmt.Errorf("sim: workload %s has no kernels", w.Name)
	}
	for _, k := range w.Kernels {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("sim: workload %s kernel %s: %w", w.Name, k.Name, err)
		}
	}
	return nil
}

// DistinctKernels returns the kernels of ws deduplicated by name, in
// first-appearance order — the canonical kernel set for profile
// sweeps and sweep plans (a name can appear in several workloads; the
// first occurrence wins, matching catalogue shadowing semantics).
func DistinctKernels(ws []*Workload) []*trace.Kernel {
	var kernels []*trace.Kernel
	seen := map[string]bool{}
	for _, w := range ws {
		for _, k := range w.Kernels {
			if !seen[k.Name] {
				seen[k.Name] = true
				kernels = append(kernels, k)
			}
		}
	}
	return kernels
}

// WorkloadResult aggregates a workload run.
type WorkloadResult struct {
	Workload string
	Policy   string

	Cycles       int64
	Instructions int64
	IPC          float64

	L1      cache.Stats
	AML     float64 // load-weighted mean across kernels
	DRAMAcc int64
	L2Acc   int64
	L2Hits  int64

	NoCReqFlits  int64
	NoCRespFlits int64

	PerKernel []KernelResult
}

// L1HitRate returns the aggregate L1 hit rate.
func (r WorkloadResult) L1HitRate() float64 { return r.L1.HitRate() }

// runKernelsFrom runs kernels start.. of w, folding results into agg.
// It is the one loop over a workload's kernels, under Drive (from kernel
// 0, or after the kernel a checkpoint restored) and GPU.RunWorkload. L2
// contents stay warm across the kernels of one workload.
func (g *GPU) runKernelsFrom(w *Workload, p Policy, opts RunOptions, start int, agg *workloadAgg) (WorkloadResult, error) {
	for i := start; i < len(w.Kernels); i++ {
		k := w.Kernels[i]
		ko := opts
		ko.Warm = i > 0
		kr, err := g.Run(k, p, ko)
		if err != nil {
			return agg.finish(), fmt.Errorf("sim: workload %s kernel %s: %w", w.Name, k.Name, err)
		}
		agg.add(kr)
	}
	return agg.finish(), nil
}

// GTO is the baseline policy: maximum warps, everything pollutes.
type GTO struct{}

// Name implements Policy.
func (GTO) Name() string { return "GTO" }

// KernelStart implements Policy.
func (GTO) KernelStart(g *GPU, k *trace.Kernel) int64 {
	max := g.MaxN()
	g.SetTupleAll(max, max)
	return Never
}

// Step implements Policy.
func (GTO) Step(g *GPU, now int64) int64 { return Never }

// KernelEnd implements Policy.
func (GTO) KernelEnd(g *GPU, now int64) {}

// Fixed pins every SM to one static warp-tuple for the whole run: the
// building block for SWL (p = N) and for Static-Best profiles.
type Fixed struct {
	PolicyName string
	N, P       int
	// PerKernel overrides the tuple for specific kernel names (the
	// Static-Best and SWL policies profile per kernel).
	PerKernel map[string][2]int
}

// Name implements Policy.
func (f Fixed) Name() string {
	if f.PolicyName != "" {
		return f.PolicyName
	}
	return fmt.Sprintf("Fixed(%d,%d)", f.N, f.P)
}

// KernelStart implements Policy.
func (f Fixed) KernelStart(g *GPU, k *trace.Kernel) int64 {
	n, p := f.N, f.P
	if t, ok := f.PerKernel[k.Name]; ok {
		n, p = t[0], t[1]
	}
	if n <= 0 {
		n = g.MaxN()
	}
	if p <= 0 {
		p = n
	}
	g.SetTupleAll(n, p)
	return Never
}

// Step implements Policy.
func (f Fixed) Step(g *GPU, now int64) int64 { return Never }

// KernelEnd implements Policy.
func (f Fixed) KernelEnd(g *GPU, now int64) {}
