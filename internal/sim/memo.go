package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"poise/internal/config"
	"poise/internal/runner"
	"poise/internal/sm"
	"poise/internal/trace"
)

// Content-addressed run memo. The paper defines SWL and Static-Best
// from the offline {N, p} profile and GTO is the profile's own baseline
// point, so a scheme-grid cell often repeats a run the sweep already
// did; grids repeat each other's GTO and Pbest cells. A run whose
// policy pins one tuple per kernel is a pure function of (config, run
// options, kernel contents, tuples) — the simulation is deterministic —
// and is keyed by a digest over exactly those. The key maps to the
// finished result, held in this process's memory. Sweep points (a cold
// one-kernel run at Fixed{N, P}) and workload cells go through the same
// keys, so sweep<->cell, cell<->cell and grid<->grid repeats need no
// coordination.

// TuplePrefixer is implemented by policies whose effect on a kernel is
// fully determined by one warp-tuple pinned at kernel start (GTO,
// Fixed and the profile-derived SWL/Static-Best built on Fixed).
// Adaptive policies steer mid-kernel from observed counters and carry
// state from kernel to kernel, so their runs are not a function of a
// tuple sequence and never touch the memo.
type TuplePrefixer interface {
	Policy
	// PrefixTuple returns the tuple the policy will pin for kernel k,
	// before scheduler clamping.
	PrefixTuple(cfg config.Config, k *trace.Kernel) (n, p int)
}

// KernelMaxN is GPU.MaxN before a GPU runs the kernel: the
// configuration's per-scheduler warp limit, clipped by the kernel's own
// occupancy bound. Memo keys, sweep grids and feature runs are sized by it.
func KernelMaxN(cfg config.Config, k *trace.Kernel) int {
	n := cfg.WarpsPerSched
	if k.MaxWarpsPerSched > 0 && k.MaxWarpsPerSched < n {
		n = k.MaxWarpsPerSched
	}
	return n
}

// clampTuple applies the scheduler's SetTuple clamp so keys use the
// tuple that actually takes effect, collapsing out-of-range requests
// onto the same entry.
func clampTuple(cfg config.Config, n, p int) (int, int) {
	c := cfg.WarpsPerSched
	if n < 1 {
		n = 1
	}
	if n > c {
		n = c
	}
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return n, p
}

// PrefixTuple implements TuplePrefixer: GTO always runs all warps.
func (GTO) PrefixTuple(cfg config.Config, k *trace.Kernel) (int, int) {
	m := KernelMaxN(cfg, k)
	return m, m
}

// PrefixTuple implements TuplePrefixer, replicating KernelStart's
// tuple resolution.
func (f Fixed) PrefixTuple(cfg config.Config, k *trace.Kernel) (int, int) {
	n, p := f.N, f.P
	if t, ok := f.PerKernel[k.Name]; ok {
		n, p = t[0], t[1]
	}
	if n <= 0 {
		n = KernelMaxN(cfg, k)
	}
	if p <= 0 {
		p = n
	}
	return n, p
}

// memoCap bounds the results a RunMemo holds; past it the oldest are
// forgotten first. A whole default campaign asks for about a quarter of
// it (1 760 evaluation points, 2 280 training points, under 400 grid
// cells), so nothing it can reuse is pushed out, and a one-kernel
// result is about a kilobyte, so a long-lived fleet worker tops out at
// a few tens of megabytes.
const memoCap = 1 << 14

// RunMemo remembers the results of tuple-pinned runs by content key
// and answers a repeated run from memory. It is single-flight: of
// several goroutines asking for one key at once, one simulates and the
// rest wait for its result. Failed runs are never remembered. Safe for
// concurrent use; its lifetime is its owner's (an experiments.Harness).
type RunMemo struct {
	runs runner.Cache[string, WorkloadResult]

	// Kernel runs asked of the memo by tuple-pinned runs: answered from
	// memory, and started by a simulation.
	Reused    atomic.Int64
	Simulated atomic.Int64
	// CyclesSaved is the simulated cycles of the reused kernel runs.
	CyclesSaved atomic.Int64
}

// NewRunMemo returns an empty memo.
func NewRunMemo() *RunMemo {
	m := &RunMemo{}
	m.runs.Cap = memoCap
	return m
}

// Len reports how many results the memo holds.
func (m *RunMemo) Len() int { return m.runs.Len() }

// memoised returns p as a TuplePrefixer when a run under p and opts
// goes through the memo. Adaptive policies steer from what they observe
// and runs with an interrupt control armed may stop part-way: neither
// touches it.
func memoised(p Policy, opts RunOptions) (TuplePrefixer, bool) {
	tp, ok := p.(TuplePrefixer)
	return tp, ok && opts.Interrupt == nil
}

// memoKey digests everything that shapes a run of w on g under tp: the
// hardware config, the run options, whether tuple tracing is on
// (tracing changes the result's TupleLog, never its numbers), and each
// kernel's contents with the tuple that takes effect on it. firstDigest
// is trace.KernelDigest(w.Kernels[0]) when the caller holds it already,
// else "".
func (g *GPU) memoKey(tp TuplePrefixer, w *Workload, firstDigest string, opts RunOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d|%d|%v", g.Cfg, opts.MaxCycles, opts.Engine, g.TraceTuples)
	for i, k := range w.Kernels {
		digest := firstDigest
		if i > 0 || digest == "" {
			digest = trace.KernelDigest(k)
		}
		n, p := tp.PrefixTuple(g.Cfg, k)
		n, p = clampTuple(g.Cfg, n, p)
		fmt.Fprintf(h, "|%s|%d,%d", digest, n, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// labelled returns a deep copy of res under the labels of the run that
// asked: the same numbers may answer another workload, policy or
// kernel name, and a caller that edits its copy must not reach the
// memo's.
func (res WorkloadResult) labelled(w *Workload, p Policy) WorkloadResult {
	res.Workload, res.Policy = w.Name, p.Name()
	per := make([]KernelResult, len(res.PerKernel))
	for i, kr := range res.PerKernel {
		kr.Kernel = w.Kernels[i].Name
		kr.PerSM = append([]sm.Counters(nil), kr.PerSM...)
		kr.TupleLog = append([]TupleEvent(nil), kr.TupleLog...)
		per[i] = kr
	}
	res.PerKernel = per
	return res
}

// RunWorkloadCached is RunWorkload through the run memo. A run whose
// policy pins its tuples (a TuplePrefixer) is answered from memory when
// the memo holds its key; otherwise it is simulated, once however many
// goroutines ask, and remembered. The result carries this run's labels
// on a copy of its own and is bit-identical to an unmemoised run's.
// Adaptive policies and runs with an interrupt control armed go straight
// to RunWorkload.
func (g *GPU) RunWorkloadCached(w *Workload, p Policy, opts RunOptions, m *RunMemo) (WorkloadResult, error) {
	return g.runCached(w, "", p, opts, m)
}

// RunKernelCached is Run of a cold kernel through the run memo: a
// sweep point, the memoised run of a one-kernel workload. It shares its
// key, and so its result, with a one-kernel workload run under a policy
// pinning the same tuple. digest is trace.KernelDigest(k) when the
// caller holds it already, else "". Adaptive policies, warm runs and
// runs with an interrupt control armed go straight to Run.
func (g *GPU) RunKernelCached(k *trace.Kernel, digest string, p Policy, opts RunOptions, m *RunMemo) (KernelResult, error) {
	if _, ok := memoised(p, opts); !ok || opts.Warm {
		return g.Run(k, p, opts)
	}
	res, err := g.runCached(&Workload{Name: k.Name, Kernels: []*trace.Kernel{k}}, digest, p, opts, m)
	if err != nil {
		return KernelResult{}, err
	}
	return res.PerKernel[0], nil
}

// runCached answers a run of w from the memo or simulates it through
// RunWorkload, keeping the result without labels: what the memo holds
// is its own copy, and callers get labelled() copies of it.
func (g *GPU) runCached(w *Workload, firstDigest string, p Policy, opts RunOptions, m *RunMemo) (WorkloadResult, error) {
	tp, ok := memoised(p, opts)
	if !ok {
		return g.RunWorkload(w, p, opts)
	}
	if err := w.Validate(); err != nil {
		return WorkloadResult{}, err
	}
	simulated := false
	res, err := m.runs.Get(g.memoKey(tp, w, firstDigest, opts), func() (WorkloadResult, error) {
		simulated = true
		res, err := g.RunWorkload(w, p, opts)
		started := len(res.PerKernel)
		if err != nil {
			started++ // the kernel that failed
		}
		m.Simulated.Add(int64(started))
		res.Workload, res.Policy = "", ""
		for i := range res.PerKernel {
			res.PerKernel[i].Kernel = ""
		}
		return res, err
	})
	if err == nil && !simulated {
		m.Reused.Add(int64(len(res.PerKernel)))
		m.CyclesSaved.Add(res.Cycles)
	}
	return res.labelled(w, p), err
}
