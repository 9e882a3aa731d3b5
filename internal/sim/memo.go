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

// KernelMaxN is the per-scheduler warp bound for kernel k: the
// configuration's per-scheduler warp limit, clipped by the kernel's own
// occupancy bound (a nil kernel has none). GPU.MaxN, memo keys, sweep
// grids and feature runs are sized by it.
func KernelMaxN(cfg config.Config, k *trace.Kernel) int {
	n := cfg.WarpsPerSched
	if k != nil && k.MaxWarpsPerSched > 0 && k.MaxWarpsPerSched < n {
		n = k.MaxWarpsPerSched
	}
	return n
}

// PrefixTuple implements TuplePrefixer: GTO always runs all warps.
func (GTO) PrefixTuple(cfg config.Config, k *trace.Kernel) (int, int) {
	m := KernelMaxN(cfg, k)
	return m, m
}

// PrefixTuple implements TuplePrefixer; KernelStart pins its result.
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

// memoKey digests everything that shapes a run of w under tp: the
// hardware config, the run options, and each kernel's contents with the
// tuple that takes effect on it. firstDigest is
// trace.KernelDigest(w.Kernels[0]) when the caller holds it already,
// else "".
func memoKey(cfg config.Config, tp TuplePrefixer, w *Workload, firstDigest string, opts RunOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d|%d", cfg, opts.MaxCycles, opts.Engine)
	for i, k := range w.Kernels {
		digest := firstDigest
		if i > 0 || digest == "" {
			digest = trace.KernelDigest(k)
		}
		n, p := tp.PrefixTuple(cfg, k)
		// The scheduler's clamp: keys use the tuple that takes effect,
		// collapsing out-of-range requests onto one entry.
		n, p = sm.ClampTuple(cfg.WarpsPerSched, n, p)
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
		per[i] = kr
	}
	res.PerKernel = per
	return res
}

// run answers Drive's run of w under tp from memory, or simulates it
// on a pooled GPU of its own — once however many goroutines ask — and
// remembers it. The memo keeps its result without labels; callers get
// labelled() copies of it, bit-identical to an unmemoised run's.
func (m *RunMemo) run(cfg config.Config, w *Workload, firstDigest string, tp TuplePrefixer, opts RunOptions) (WorkloadResult, error) {
	if err := w.Validate(); err != nil {
		return WorkloadResult{}, err
	}
	simulated := false
	res, err := m.runs.Get(memoKey(cfg, tp, w, firstDigest, opts), func() (WorkloadResult, error) {
		simulated = true
		res, _, err := driveWorkload(cfg, w, tp, opts, nil)
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
	return res.labelled(w, tp), err
}
