package sim

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"poise/internal/config"
	"poise/internal/snap"
)

// Workload-level preemption. RunWorkloadPreemptible runs a workload
// under an InterruptCtl; when the control fires mid-kernel, the run
// stops at a safe point and comes back as a Checkpoint — the GPU's
// mid-kernel state plus the workload aggregation so far. ResumeWorkload
// restores the checkpoint on a fresh-state GPU (anywhere: another process,
// another fleet worker) and finishes the run bit-identical to an
// uninterrupted one. A resumed run is itself preemptible, so a task can
// bounce across arbitrarily many workers.

const maxAggSnap = 1 << 24

// workloadAgg accumulates per-kernel results into a WorkloadResult,
// carrying the load-weighted AML numerator/denominator so aggregation
// can stop and resume without losing the weighting.
type workloadAgg struct {
	res    WorkloadResult
	amlSum float64
	amlW   int64
}

func newWorkloadAgg(w *Workload, p Policy) *workloadAgg {
	a := &workloadAgg{res: WorkloadResult{Workload: w.Name}}
	if p != nil {
		a.res.Policy = p.Name()
	}
	return a
}

func (a *workloadAgg) add(kr KernelResult) {
	res := &a.res
	res.PerKernel = append(res.PerKernel, kr)
	res.Cycles += kr.Cycles
	res.Instructions += kr.Instructions
	res.L1.Accesses += kr.L1.Accesses
	res.L1.Hits += kr.L1.Hits
	res.L1.IntraWarpHits += kr.L1.IntraWarpHits
	res.L1.InterWarpHits += kr.L1.InterWarpHits
	res.L1.PolluteAccesses += kr.L1.PolluteAccesses
	res.L1.PolluteHits += kr.L1.PolluteHits
	res.L1.NoPollAccesses += kr.L1.NoPollAccesses
	res.L1.NoPollHits += kr.L1.NoPollHits
	res.L1.Evictions += kr.L1.Evictions
	res.L1.Bypasses += kr.L1.Bypasses
	res.L1.Fills += kr.L1.Fills
	res.DRAMAcc += kr.DRAMAcc
	res.L2Acc += kr.L2Accesses
	res.L2Hits += kr.L2Hits
	res.NoCReqFlits += kr.NoCReqFlits
	res.NoCRespFlits += kr.NoCRespFlits
	if kr.AML > 0 {
		weight := kr.L1.Accesses - kr.L1.Hits
		a.amlSum += kr.AML * float64(weight)
		a.amlW += weight
	}
}

// finish computes the derived ratios and returns the aggregate. It
// does not consume the agg: more kernels may be added and finish
// called again (the ratios are recomputed from scratch each time).
func (a *workloadAgg) finish() WorkloadResult {
	res := a.res
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	if a.amlW > 0 {
		res.AML = a.amlSum / float64(a.amlW)
	}
	return res
}

// encode serialises the aggregation. The WorkloadResult travels as
// JSON — Go renders float64 in shortest round-trip form, so the
// decoded struct is bit-identical — and the AML numerator as raw
// float bits.
func (a *workloadAgg) encode() []byte {
	w := snap.NewWriter()
	js, err := json.Marshal(a.res)
	if err != nil {
		// WorkloadResult is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("sim: marshal workload agg: %v", err))
	}
	w.Bytes(js)
	w.Float64(a.amlSum)
	w.Varint(a.amlW)
	return w.Data()
}

func decodeWorkloadAgg(data []byte) (*workloadAgg, error) {
	r := snap.NewReader(data)
	js := r.LimitedView(maxAggSnap) // Unmarshal keeps no reference to it
	a := &workloadAgg{}
	if r.Err() == nil {
		if err := json.Unmarshal(js, &a.res); err != nil {
			return nil, fmt.Errorf("sim: workload agg: %w", err)
		}
	}
	a.amlSum = r.Float64()
	a.amlW = r.Varint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes in workload agg", r.Len())
	}
	return a, nil
}

// Checkpoint is a preempted workload run: which kernel was in flight,
// the GPU + policy state at the interrupt point, and the results of
// the kernels already completed.
type Checkpoint struct {
	Workload    string
	KernelIndex int
	Cycle       int64
	// State is the SnapshotKernel payload for the in-flight kernel.
	State []byte
	// Agg is the serialised aggregation over kernels 0..KernelIndex-1.
	Agg []byte
}

// container is the checkpoint's poisesnap envelope under the given
// content key, without the state.
func (c *Checkpoint) container(key string) *snap.Snapshot {
	return &snap.Snapshot{
		Kind:        snap.KindCheckpoint,
		Key:         key,
		Workload:    c.Workload,
		KernelIndex: c.KernelIndex,
		Cycle:       c.Cycle,
	}
}

// Snapshot packs the checkpoint into a poisesnap container under the
// given content key (for snap.Store.Save).
func (c *Checkpoint) Snapshot(key string) *snap.Snapshot {
	w := snap.NewWriterSize(len(c.Agg) + len(c.State) + 2*binary.MaxVarintLen64)
	w.Bytes(c.Agg)
	w.Bytes(c.State)
	sn := c.container(key)
	sn.State = w.Data()
	return sn
}

// Encode serialises the checkpoint container to bytes: the state the
// GPU wrote is copied once, into the container.
func (c *Checkpoint) Encode(key string) ([]byte, error) {
	return c.container(key).EncodeSections(c.Agg, c.State)
}

// checkpointFromSnapshot unpacks a KindCheckpoint container. The
// checkpoint's State and Agg are views of sn.State, so the caller must
// not modify sn.State while it uses the checkpoint.
func checkpointFromSnapshot(sn *snap.Snapshot) (*Checkpoint, error) {
	if sn.Kind != snap.KindCheckpoint {
		return nil, fmt.Errorf("sim: snapshot kind %v is not a workload checkpoint", sn.Kind)
	}
	r := snap.NewReader(sn.State)
	agg := r.LimitedView(maxAggSnap)
	state := r.LimitedView(1 << 30)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes in checkpoint", r.Len())
	}
	return &Checkpoint{
		Workload:    sn.Workload,
		KernelIndex: sn.KernelIndex,
		Cycle:       sn.Cycle,
		State:       state,
		Agg:         agg,
	}, nil
}

// DecodeCheckpoint parses an encoded checkpoint container. Nothing is
// copied: the checkpoint's State and Agg are views of data, checked
// against its CRC as it stood (see snap.Decode), so data stays
// unchanged until the checkpoint has been resumed or dropped.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	sn, err := snap.Decode(data)
	if err != nil {
		return nil, err
	}
	return checkpointFromSnapshot(sn)
}

// RunWorkloadPreemptible is RunWorkload with a checkpoint path: when
// opts.Interrupt fires mid-kernel the error is ErrInterrupted (test
// with errors.Is) and the returned Checkpoint resumes the run — on
// this machine or any other — via ResumeWorkload.
func RunWorkloadPreemptible(cfg config.Config, w *Workload, p Policy, opts RunOptions) (WorkloadResult, *Checkpoint, error) {
	return driveWorkload(cfg, w, p, opts, nil)
}

// checkpoint captures the interrupted kernel + aggregation state.
func (g *GPU) checkpoint(w *Workload, p Policy, agg *workloadAgg) (*Checkpoint, error) {
	state, err := g.SnapshotKernel(p)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Workload:    w.Name,
		KernelIndex: len(agg.res.PerKernel),
		Cycle:       g.now,
		State:       state,
		Agg:         agg.encode(),
	}, nil
}

// ResumeWorkload restores cp on a GPU in its fresh state and runs the
// workload to completion. The caller supplies the same workload
// definition, a policy constructed with the same parameters, and
// options whose engine/limit fields match the interrupted run
// (opts.Interrupt may be a fresh control to preempt again — the third
// return value is the next checkpoint in that case).
func ResumeWorkload(cfg config.Config, w *Workload, p Policy, opts RunOptions, cp *Checkpoint) (WorkloadResult, *Checkpoint, error) {
	if cp == nil {
		return WorkloadResult{}, nil, errors.New("sim: no checkpoint to resume")
	}
	return driveWorkload(cfg, w, p, opts, cp)
}

// RunStored runs w under the checkpoint protocol of store, keyed by key:
// the one way a preemptible run — a poisesim workload, a sweep task —
// probes, resumes, saves and cleans up.
//
//   - A KindCheckpoint container under key is resumed. One that cannot
//     be decoded or restored is not fatal: the run starts again from
//     kernel 0 under a fresh newPolicy() (driveWorkload releases, and so
//     resets, the GPU a failed restore touched).
//   - A container of any other kind is not this run's: it is left where
//     it is, and the run starts from kernel 0.
//   - On ErrInterrupted the next checkpoint is saved under key, and the
//     error comes back still matching errors.Is(err, ErrInterrupted).
//   - On success the KindCheckpoint container found under key, used or
//     not, is deleted, and nothing else is.
func RunStored(cfg config.Config, w *Workload, newPolicy func() (Policy, error), opts RunOptions, store *snap.Store, key string) (WorkloadResult, error) {
	pol, err := newPolicy()
	if err != nil {
		return WorkloadResult{}, err
	}
	sn, lerr := store.Load(key)
	mine := lerr == nil && sn.Kind == snap.KindCheckpoint
	var (
		res     WorkloadResult
		cp      *Checkpoint
		resumed bool
	)
	if mine {
		if prev, perr := checkpointFromSnapshot(sn); perr == nil {
			res, cp, err = ResumeWorkload(cfg, w, pol, opts, prev)
			if resumed = err == nil || errors.Is(err, ErrInterrupted); !resumed {
				// The restore may have left the policy half-written.
				if pol, err = newPolicy(); err != nil {
					return WorkloadResult{}, err
				}
			}
		}
	}
	if !resumed {
		res, cp, err = RunWorkloadPreemptible(cfg, w, pol, opts)
	}
	switch {
	case err == nil:
		if mine {
			// Best effort: a leftover checkpoint only costs a probe.
			_ = store.Delete(key)
		}
	case errors.Is(err, ErrInterrupted):
		if serr := store.Save(cp.Snapshot(key)); serr != nil {
			return res, fmt.Errorf("sim: saving checkpoint %q: %v (preempted by %w)", key, serr, err)
		}
	}
	return res, err
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
