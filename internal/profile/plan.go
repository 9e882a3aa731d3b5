package profile

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/trace"
)

// This file is the distributable face of the sweep: a sweep is planned
// (BuildPlan), executed task by task (RunTasks) — possibly split
// across a fleet's worker processes — and the measurements are merged
// back into a Profile (MergeShards). The in-process Sweep is exactly
// the one-part instance of this pipeline, so merging any decomposition
// of the plan reproduces it bit for bit.

// BuildPlan enumerates the sweep grid of kernel k on cfg as a
// serialisable plan. tag identifies the configuration (the profile
// cache key); the tasks carry k's content digest so a worker process
// can verify its catalogue materialises the same kernel before
// simulating.
func BuildPlan(tag string, cfg config.Config, k *trace.Kernel, opts SweepOptions) *gridplan.Plan {
	opts = opts.withDefaults()
	maxN := sim.KernelMaxN(cfg, k)
	digest := gridplan.KernelDigest(k)
	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	for _, c := range gridplan.Enumerate(maxN, opts.StepN, opts.StepP) {
		plan.Tasks = append(plan.Tasks, gridplan.Task{
			Tag: tag, Kernel: k.Name, Digest: digest,
			N: c.N, P: c.P, Seed: k.Seed,
		})
	}
	return plan
}

// RunTasks executes plan tasks — a whole plan, a refinement round or a
// fleet lease — and returns their raw measurements in task order. Kernels are resolved by name
// from the given set and their content digests are verified against
// the plan before anything simulates (VerifyTasks). Tasks fan out
// across opts.Workers goroutines; each in-flight task runs on its own
// GPU drawn from a shared pool (reset between runs is bit-identical to
// fresh construction, so reuse cannot perturb results). Measurements
// are raw: speedups are computed at merge time, because the baseline
// point may have run in another process.
func RunTasks(cfg config.Config, kernels map[string]*trace.Kernel, tasks []gridplan.Task, opts SweepOptions) ([]gridplan.Measurement, error) {
	if err := VerifyTasks(kernels, tasks); err != nil {
		return nil, err
	}
	return RunVerifiedTasks(cfg, kernels, tasks, opts)
}

// VerifyTasks checks that every task's kernel is in the given set and
// that its content digest, where the task carries one, is the digest of
// the kernel found there. Each kernel is hashed once per call.
func VerifyTasks(kernels map[string]*trace.Kernel, tasks []gridplan.Task) error {
	digests := map[string]string{}
	for _, t := range tasks {
		k := kernels[t.Kernel]
		if k == nil {
			return fmt.Errorf("profile: plan task %s needs kernel %q, not in the catalogue", t.Key(), t.Kernel)
		}
		if t.Digest == "" {
			continue
		}
		d, ok := digests[t.Kernel]
		if !ok {
			d = gridplan.KernelDigest(k)
			digests[t.Kernel] = d
		}
		if d != t.Digest {
			return fmt.Errorf(
				"profile: kernel %q digest mismatch: plan has %s, catalogue materialises %s (stale plan or drifted catalogue?)",
				t.Kernel, t.Digest, d)
		}
	}
	return nil
}

// RunVerifiedTasks is RunTasks for tasks VerifyTasks has already
// accepted against these kernels: a caller that executes one verified
// plan a few tasks at a time (a fleet worker's leases) hashes its
// kernels once, not once per call. Like everything that simulates, it
// draws its GPUs from the process-wide set (sim.Acquire), so the leases
// of a plan and the rounds of a refinement run on the same machines.
func RunVerifiedTasks(cfg config.Config, kernels map[string]*trace.Kernel, tasks []gridplan.Task, opts SweepOptions) ([]gridplan.Measurement, error) {
	opts = opts.withDefaults()
	return runner.MapSlice(opts.Ctx, opts.Workers, tasks,
		func(_ context.Context, _ int, t gridplan.Task) (gridplan.Measurement, error) {
			res, err := runTask(cfg, kernels[t.Kernel], t, opts)
			if err != nil {
				return gridplan.Measurement{}, fmt.Errorf("profile: point (%d,%d) of %s: %w", t.N, t.P, t.Kernel, err)
			}
			return gridplan.Measurement{
				Tag: t.Tag, Kernel: t.Kernel, N: t.N, P: t.P,
				IPC:     res.IPC,
				HitRate: res.L1.HitRate(),
				AML:     res.AML,
				Cycles:  res.Cycles, Instructions: res.Instructions,
			}, nil
		})
}

// taskCheckpointKey names a task's mid-run snapshot in a checkpoint
// store: the full task identity plus the kernel content digest, so a
// checkpoint from a stale plan can never resume against drifted traces.
func taskCheckpointKey(t gridplan.Task) string {
	return "task|" + t.Key() + "|" + t.Digest
}

// runTask simulates one grid point: the one-kernel workload {k} under
// Fixed{N, P} through sim.Drive, answered by the memo when one is set
// and it holds the point, else on a pooled GPU. With a checkpoint store
// Drive resumes, saves and deletes the task's checkpoint; a resumed task
// measures bit-identical to an uninterrupted run (sim's snapshot covers
// all live engine state), so checkpointing never perturbs merged sweep
// output.
func runTask(cfg config.Config, k *trace.Kernel, t gridplan.Task, opts SweepOptions) (sim.KernelResult, error) {
	job := sim.Job{
		Workload: &sim.Workload{Name: k.Name, Kernels: []*trace.Kernel{k}},
		Policy:   func() (sim.Policy, error) { return sim.Fixed{N: t.N, P: t.P}, nil },
		Opts:     sim.RunOptions{MaxCycles: opts.MaxCycles, Interrupt: opts.Interrupt},
		Memo:     opts.Memo,
		Digest:   t.Digest,
	}
	if opts.Checkpoints != nil {
		job.Store, job.Key = opts.Checkpoints, taskCheckpointKey(t)
	}
	res, _, err := sim.Drive(cfg, job)
	if err != nil {
		return sim.KernelResult{}, err
	}
	return res.PerKernel[0], nil
}

// MergeShards assembles measurement sets — one per process, lease or
// refinement round — into the kernel's Profile, bit-identical to an in-process Sweep of the same grid: the
// merged points sort by (N, P) — the order Sweep emits — speedups are
// normalised against the merged (maxN, maxN) baseline with the same
// float operation Sweep uses, and the baseline's speedup is exactly 1.
func MergeShards(kernel string, shards ...[]gridplan.Measurement) (*Profile, error) {
	ms, err := gridplan.Merge(shards...)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("profile: merging %s: no measurements", kernel)
	}
	maxN := 0
	for _, m := range ms {
		if m.Kernel != kernel {
			return nil, fmt.Errorf("profile: merging %s: shard contains measurement for %s", kernel, m.Kernel)
		}
		if m.Tag != ms[0].Tag {
			return nil, fmt.Errorf("profile: merging %s: mixed configuration tags %q and %q", kernel, ms[0].Tag, m.Tag)
		}
		if m.N > maxN {
			maxN = m.N
		}
	}
	var base *gridplan.Measurement
	for i := range ms {
		if ms[i].N == maxN && ms[i].P == maxN {
			base = &ms[i]
			break
		}
	}
	if base == nil {
		return nil, fmt.Errorf("profile: merging %s: baseline point (%d,%d) missing from shards", kernel, maxN, maxN)
	}
	pr := &Profile{
		Kernel: kernel, MaxN: maxN,
		Baseline: Point{
			N: maxN, P: maxN, IPC: base.IPC, Speedup: 1,
			HitRate: base.HitRate, AML: base.AML,
		},
		BaselineCycles: base.Cycles,
		BaselineInstr:  base.Instructions,
	}
	for _, m := range ms {
		pt := Point{N: m.N, P: m.P, IPC: m.IPC, HitRate: m.HitRate, AML: m.AML}
		if m.N == maxN && m.P == maxN {
			pt.Speedup = 1
		} else if base.IPC > 0 {
			pt.Speedup = m.IPC / base.IPC
		}
		pr.Points = append(pr.Points, pt)
	}
	// gridplan.Merge already ordered by key, which is (N, P) order for a
	// single (tag, kernel); keep the explicit sort as a guard so the
	// Profile contract never depends on key formatting.
	sort.Slice(pr.Points, func(i, j int) bool {
		if pr.Points[i].N != pr.Points[j].N {
			return pr.Points[i].N < pr.Points[j].N
		}
		return pr.Points[i].P < pr.Points[j].P
	})
	pr.buildIndex()
	return pr, nil
}

// SweepTag digests the sweep-relevant parts of (configuration, grid
// resolution) into a short cache tag for standalone (non-harness)
// sweeps, e.g. poisesim's -sweep and fleet modes. Two processes
// agreeing on flags agree on the tag, so their plan, round files and
// merged profiles key consistently.
func SweepTag(cfg config.Config, opts SweepOptions) string {
	opts = opts.withDefaults()
	s := fmt.Sprintf("%+v|%d.%d", cfg, opts.StepN, opts.StepP)
	if opts.Refine {
		// Refined profiles carry a subset of the grid, so a refined
		// campaign must never collide with a whole-grid one — or with
		// one refined under different parameters.
		s += "|prune" + RefineTag()
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:6])
}
