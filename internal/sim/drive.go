package sim

import (
	"errors"
	"fmt"

	"poise/internal/config"
	"poise/internal/snap"
)

// Job is one workload run for Drive: what runs, where it starts, and
// what the run may reuse or leave behind. Only Workload and Policy are
// required.
type Job struct {
	Workload *Workload
	// Policy builds the run's policy. Drive calls it once, and once more
	// when a stored checkpoint fails to restore (the restore may have left
	// the first instance half-written).
	Policy func() (Policy, error)
	Opts   RunOptions
	// From, when set, is the checkpoint the run resumes instead of
	// starting at kernel 0. One that does not fit the workload is an
	// error.
	From *Checkpoint
	// Memo, when set, answers a run from kernel 0 under a tuple-pinned
	// policy (a TuplePrefixer) with no interrupt armed from memory, and
	// remembers the ones it simulates.
	Memo *RunMemo
	// Digest is trace.KernelDigest of the first kernel when the caller
	// holds it already, else "": it spares the memo key one hash.
	Digest string
	// Store, when set, holds the run's checkpoint under Key: Drive
	// probes it before running, saves the next checkpoint there when
	// the run is interrupted and deletes it when the run completes.
	Store *snap.Store
	Key   string
}

// Drive runs a job to completion or to its interrupt. It is the one way
// to run a workload — a sweep point is a one-kernel workload — and goes
// through four stages:
//
//  1. It builds the policy.
//  2. It probes Store. A KindCheckpoint container under Key is resumed
//     (in preference to From); one that cannot be decoded or restored is
//     not fatal, the run goes on from From or kernel 0 under a freshly
//     built policy. A container of any other kind is not this run's: it
//     is left where it is.
//  3. It runs: from the memo when Memo is set, the policy pins its
//     tuples, the run starts at kernel 0 and no interrupt is armed, else
//     on a pooled GPU through driveWorkload.
//  4. On ErrInterrupted (test with errors.Is) it returns the checkpoint
//     that resumes the run — on this machine or any other — and saves it
//     under Key. On success it deletes the KindCheckpoint container found
//     under Key, used or not, and nothing else.
func Drive(cfg config.Config, j Job) (WorkloadResult, *Checkpoint, error) {
	pol, err := j.Policy()
	if err != nil {
		return WorkloadResult{}, nil, err
	}
	var (
		res     WorkloadResult
		cp      *Checkpoint
		stored  bool
		resumed bool
	)
	if j.Store != nil {
		sn, lerr := j.Store.Load(j.Key)
		stored = lerr == nil && sn.Kind == snap.KindCheckpoint
		if stored {
			if prev, perr := checkpointFromSnapshot(sn); perr == nil {
				res, cp, err = driveWorkload(cfg, j.Workload, pol, j.Opts, prev)
				if resumed = err == nil || errors.Is(err, ErrInterrupted); !resumed {
					if pol, err = j.Policy(); err != nil {
						return WorkloadResult{}, nil, err
					}
				}
			}
		}
	}
	if !resumed {
		tp, pinned := pol.(TuplePrefixer)
		if pinned && j.Memo != nil && j.From == nil && j.Opts.Interrupt == nil {
			res, err = j.Memo.run(cfg, j.Workload, j.Digest, tp, j.Opts)
		} else {
			res, cp, err = driveWorkload(cfg, j.Workload, pol, j.Opts, j.From)
		}
	}
	switch {
	case j.Store == nil:
	case err == nil && stored:
		// Best effort: a leftover checkpoint only costs a probe.
		_ = j.Store.Delete(j.Key)
	case errors.Is(err, ErrInterrupted):
		if serr := j.Store.Save(cp.Snapshot(j.Key)); serr != nil {
			return res, cp, fmt.Errorf("sim: saving checkpoint %q: %v (preempted by %w)", j.Key, serr, err)
		}
	}
	return res, cp, err
}

// driveWorkload runs w from its first kernel, or from cp when there is
// one, on a pooled GPU; an interrupt comes back as the next checkpoint.
func driveWorkload(cfg config.Config, w *Workload, p Policy, opts RunOptions, cp *Checkpoint) (WorkloadResult, *Checkpoint, error) {
	if err := w.Validate(); err != nil {
		return WorkloadResult{}, nil, err
	}
	agg, start := newWorkloadAgg(w, p), 0
	if cp != nil {
		if cp.Workload != w.Name {
			return WorkloadResult{}, nil, fmt.Errorf("sim: checkpoint is of workload %q, not %q", cp.Workload, w.Name)
		}
		if cp.KernelIndex < 0 || cp.KernelIndex >= len(w.Kernels) {
			return WorkloadResult{}, nil, fmt.Errorf("sim: checkpoint kernel index %d out of range for %s (%d kernels)",
				cp.KernelIndex, w.Name, len(w.Kernels))
		}
		var err error
		if agg, err = decodeWorkloadAgg(cp.Agg); err != nil {
			return WorkloadResult{}, nil, err
		}
		if len(agg.res.PerKernel) != cp.KernelIndex {
			return WorkloadResult{}, nil, fmt.Errorf("sim: checkpoint aggregation covers %d kernels, expected %d",
				len(agg.res.PerKernel), cp.KernelIndex)
		}
		start = cp.KernelIndex
	}
	g, err := Acquire(cfg)
	if err != nil {
		return WorkloadResult{}, nil, err
	}
	defer Release(g)
	if cp != nil {
		k := w.Kernels[start]
		kr, err := g.ResumeKernel(k, p, opts, cp.State)
		if err != nil {
			return g.interrupted(w, p, agg, agg.finish(), fmt.Errorf("sim: workload %s kernel %s: %w", w.Name, k.Name, err))
		}
		agg.add(kr)
		start++
	}
	res, err := g.runKernelsFrom(w, p, opts, start, agg)
	return g.interrupted(w, p, agg, res, err)
}

// interrupted completes a driver's return values: a run that stopped on
// ErrInterrupted comes back with the checkpoint that resumes it.
func (g *GPU) interrupted(w *Workload, p Policy, agg *workloadAgg, res WorkloadResult, err error) (WorkloadResult, *Checkpoint, error) {
	if !errors.Is(err, ErrInterrupted) {
		return res, nil, err
	}
	cp, cperr := g.checkpoint(w, p, agg)
	if cperr != nil {
		return res, nil, cperr
	}
	return res, cp, err
}
