package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"

	"poise/internal/config"
	"poise/internal/runner"
	"poise/internal/sm"
	"poise/internal/snap"
	"poise/internal/trace"
)

// Content-addressed run memo. The paper defines SWL and Static-Best
// from the offline {N, p} profile and GTO is the profile's own baseline
// point, so a scheme-grid cell often repeats a run the sweep already
// did; grids repeat each other's GTO and Pbest cells. A run whose
// policy pins one tuple per kernel is a pure function of (config, run
// options, kernel contents, tuples) — the simulation is deterministic —
// and is keyed by a digest chain over exactly those: H(prefix key,
// kernel digest, applied tuple), rooted in the config and run options.
// The chain's terminal key maps to the finished result, held in
// memory. Every key before it names the GPU state at that kernel
// boundary, which the optional on-disk tier stores as a snapshot: a run
// that shares only a prefix with an earlier one restores the deepest
// boundary and simulates the rest. Sweep points (a cold one-kernel run
// at Fixed{N, P}) and workload cells go through the same keys, so
// sweep<->cell, cell<->cell and grid<->grid repeats need no
// coordination.

// TuplePrefixer is implemented by policies whose effect on a kernel is
// fully determined by one warp-tuple pinned at kernel start (GTO,
// Fixed and the profile-derived SWL/Static-Best built on Fixed).
// Adaptive policies steer mid-kernel from observed counters and carry
// state from kernel to kernel, so their runs are not a function of a
// tuple sequence and never touch the memo.
type TuplePrefixer interface {
	Policy
	// PrefixTuple returns the tuple the policy will pin for kernel k
	// (before scheduler clamping) and whether the prediction is exact.
	PrefixTuple(cfg config.Config, k *trace.Kernel) (n, p int, ok bool)
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
func (GTO) PrefixTuple(cfg config.Config, k *trace.Kernel) (int, int, bool) {
	m := KernelMaxN(cfg, k)
	return m, m, true
}

// PrefixTuple implements TuplePrefixer, replicating KernelStart's
// tuple resolution.
func (f Fixed) PrefixTuple(cfg config.Config, k *trace.Kernel) (int, int, bool) {
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
	return n, p, true
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
	runs  runner.Cache[string, WorkloadResult]
	store *snap.Store // kernel-boundary snapshots on disk; nil = none

	// Kernel runs asked of the memo by tuple-pinned runs: answered from
	// memory or skipped by restoring a boundary snapshot, and simulated.
	Reused    atomic.Int64
	Simulated atomic.Int64
	// CyclesSaved is the simulated cycles of the reused kernel runs.
	CyclesSaved atomic.Int64
	// Snapshot tier: runs that restored a boundary, and runs that
	// looked and started from kernel 0.
	SnapshotHits   atomic.Int64
	SnapshotMisses atomic.Int64
}

// NewRunMemo returns an empty in-memory memo.
func NewRunMemo() *RunMemo {
	m := &RunMemo{}
	m.runs.Cap = memoCap
	return m
}

// UseSnapshots adds the on-disk second tier rooted at dir (created if
// needed): kernel-boundary snapshots under the same key chain, which
// outlive the process. Call it before the memo is shared.
func (m *RunMemo) UseSnapshots(dir string) error {
	st, err := snap.NewStore(dir)
	if err != nil {
		return err
	}
	m.store = st
	return nil
}

// Len reports how many results the memo holds.
func (m *RunMemo) Len() int { return m.runs.Len() }

// chainRoot digests everything but the kernels that shapes a run: the
// hardware config, the run options and whether tuple tracing is on
// (tracing changes the result's TupleLog, never its numbers).
func chainRoot(cfg config.Config, opts RunOptions, tracing bool) string {
	d := sha256.New()
	// The literal 0 stands where an instruction cap was an option, so
	// that memo and snapshot-tier keys stay what they were.
	fmt.Fprintf(d, "poise-prefix-v%d|%+v|%d|0|%d|%v", simStateVersion,
		cfg, opts.MaxCycles, opts.Engine, tracing)
	return hex.EncodeToString(d.Sum(nil))
}

// chainKey extends a chain by one kernel: prev addresses the state
// before it (the root, or the key of the kernel in front), the result
// addresses the state after it ran under the tuple that takes effect.
func chainKey(prev, kernelDigest string, cfg config.Config, n, p int) string {
	n, p = clampTuple(cfg, n, p)
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d,%d", prev, kernelDigest, n, p)
	return hex.EncodeToString(h.Sum(nil))
}

// run answers the run under key from memory, or simulates it, once
// however many goroutines ask, and keeps its result without labels.
// What it returns is the memo's own copy: callers hand out
// labelled() copies of it, never the value itself.
func (m *RunMemo) run(key string, simulate func() (WorkloadResult, error)) (WorkloadResult, error) {
	simulated := false
	res, err := m.runs.Get(key, func() (WorkloadResult, error) {
		simulated = true
		res, err := simulate()
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
	return res, err
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

// boundarySnapshot packs the GPU state after kernel i completed, plus
// the aggregation over kernels 0..i, under the chain key.
func (g *GPU) boundarySnapshot(key string, w *Workload, i int, agg *workloadAgg) *snap.Snapshot {
	wr := snap.NewWriter()
	wr.Bytes(agg.encode())
	g.walk(snap.Out(wr), false)
	return &snap.Snapshot{
		Kind:        snap.KindBoundary,
		Key:         key,
		Workload:    w.Name,
		KernelIndex: i + 1,
		Cycle:       g.now,
		State:       wr.Data(),
	}
}

// restoreBoundary loads a boundary snapshot onto g and returns the
// aggregation it carries. On error the GPU may be partially mutated;
// the caller must Reset it before using it.
func (g *GPU) restoreBoundary(sn *snap.Snapshot) (*workloadAgg, error) {
	if sn.Kind != snap.KindBoundary {
		return nil, fmt.Errorf("sim: snapshot kind %v is not a kernel boundary", sn.Kind)
	}
	r := snap.NewReader(sn.State)
	aggBytes := r.LimitedView(maxAggSnap) // decodeWorkloadAgg keeps no reference to it
	if r.Err() != nil {
		return nil, r.Err()
	}
	if running := g.walk(snap.In(r), false); r.Err() != nil {
		return nil, r.Err()
	} else if running {
		return nil, errors.New("sim: boundary snapshot contains a running kernel")
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes in boundary snapshot", r.Len())
	}
	return decodeWorkloadAgg(aggBytes)
}

// RunWorkloadCached is RunWorkload through the run memo. A run whose
// policy pins its tuples (a TuplePrefixer) is answered from memory
// when the memo holds its terminal key; otherwise it is simulated —
// from the deepest boundary snapshot on disk whose key matches, when
// the memo has that tier, saving the boundaries it crosses — and
// remembered. The result carries this run's labels on a copy of its
// own and is bit-identical to an unmemoised run's. Adaptive policies
// and runs with an interrupt control armed go straight to RunWorkload.
func (g *GPU) RunWorkloadCached(w *Workload, p Policy, opts RunOptions, m *RunMemo) (WorkloadResult, error) {
	tp, pinned := p.(TuplePrefixer)
	if !pinned || opts.Interrupt != nil {
		return g.RunWorkload(w, p, opts)
	}
	if err := w.Validate(); err != nil {
		return WorkloadResult{}, err
	}
	keys, ok := g.chainKeys(tp, opts, w.Kernels, "")
	if !ok {
		return g.RunWorkload(w, p, opts)
	}
	res, err := m.run(keys[len(keys)-1], func() (WorkloadResult, error) {
		return g.runFromBoundary(w, p, opts, m, keys)
	})
	return res.labelled(w, p), err
}

// chainKeys returns the key chain of a run of kernels on g under the
// tuples tp pins, or false when tp cannot say what it will pin.
// firstDigest is trace.KernelDigest(kernels[0]) when the caller holds it
// already, else "".
func (g *GPU) chainKeys(tp TuplePrefixer, opts RunOptions, kernels []*trace.Kernel, firstDigest string) ([]string, bool) {
	keys := make([]string, len(kernels))
	prev := chainRoot(g.Cfg, opts, g.TraceTuples)
	for i, k := range kernels {
		n, p, ok := tp.PrefixTuple(g.Cfg, k)
		if !ok {
			return nil, false
		}
		digest := firstDigest
		if i > 0 || digest == "" {
			digest = trace.KernelDigest(k)
		}
		prev = chainKey(prev, digest, g.Cfg, n, p)
		keys[i] = prev
	}
	return keys, true
}

// runFromBoundary simulates the kernels of w the snapshot tier cannot
// supply: all of them without a tier, else those behind the deepest
// stored boundary of the key chain, writing the boundaries it crosses.
func (g *GPU) runFromBoundary(w *Workload, p Policy, opts RunOptions, m *RunMemo, keys []string) (WorkloadResult, error) {
	agg := newWorkloadAgg(w, p)
	start := 0
	last := len(w.Kernels) - 1
	if m.store != nil && last > 0 {
		for j := last - 1; j >= 0; j-- {
			sn, err := m.store.Load(keys[j])
			if err != nil {
				continue // missing (or unreadable: treat as a miss)
			}
			a, err := g.restoreBoundary(sn)
			if err != nil {
				g.Reset() // decode may have half-applied; scrub before retrying
				continue
			}
			agg, start = a, j+1
			m.SnapshotHits.Add(1)
			m.Reused.Add(int64(start))
			m.CyclesSaved.Add(a.res.Cycles)
			break
		}
		if start == 0 {
			m.SnapshotMisses.Add(1)
		}
	}
	for i := start; i <= last; i++ {
		k := w.Kernels[i]
		ko := opts
		ko.Warm = i > 0
		m.Simulated.Add(1)
		kr, err := g.Run(k, p, ko)
		if err != nil {
			return agg.finish(), fmt.Errorf("sim: workload %s kernel %s: %w", w.Name, k.Name, err)
		}
		agg.add(kr)
		if m.store != nil && i < last && !m.store.Has(keys[i]) {
			// Best effort: a failed save only costs future hits.
			_ = m.store.Save(g.boundarySnapshot(keys[i], w, i, agg))
		}
	}
	return agg.finish(), nil
}

// RunKernelCached is Run of a cold kernel through the run memo: a
// sweep point. It shares its key, and so its result, with a one-kernel
// workload run under a policy pinning the same tuple. digest is
// trace.KernelDigest(k) when the caller holds it already, else "".
// Adaptive policies, warm runs and runs with an interrupt control
// armed go straight to Run.
func (g *GPU) RunKernelCached(k *trace.Kernel, digest string, p Policy, opts RunOptions, m *RunMemo) (KernelResult, error) {
	tp, pinned := p.(TuplePrefixer)
	if !pinned || opts.Warm || opts.Interrupt != nil {
		return g.Run(k, p, opts)
	}
	if err := k.Validate(); err != nil {
		return KernelResult{}, err
	}
	w := &Workload{Name: k.Name, Kernels: []*trace.Kernel{k}}
	keys, ok := g.chainKeys(tp, opts, w.Kernels, digest)
	if !ok {
		return g.Run(k, p, opts)
	}
	res, err := m.run(keys[0], func() (WorkloadResult, error) {
		m.Simulated.Add(1)
		kr, err := g.Run(k, p, opts)
		if err != nil {
			return WorkloadResult{}, err
		}
		agg := newWorkloadAgg(w, p)
		agg.add(kr)
		return agg.finish(), nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	return res.labelled(w, p).PerKernel[0], nil
}
