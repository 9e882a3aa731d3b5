package sim

import "poise/internal/config"

// The names below are Drive, or for GPU.RunWorkload the kernel loop
// under it, spelled the way the benchmark harness in bench/ calls them.
// bench/ is their only non-test caller; everything else calls Drive.

// RunWorkload runs w from kernel 0 under p on a pooled GPU.
func RunWorkload(cfg config.Config, w *Workload, p Policy, opts RunOptions) (WorkloadResult, error) {
	return result(Drive(cfg, Job{Workload: w, Policy: given(p), Opts: opts}))
}

// RunWorkloadPreemptible runs w from kernel 0 under p; an interrupt
// comes back as the checkpoint that resumes it.
func RunWorkloadPreemptible(cfg config.Config, w *Workload, p Policy, opts RunOptions) (WorkloadResult, *Checkpoint, error) {
	return Drive(cfg, Job{Workload: w, Policy: given(p), Opts: opts})
}

// ResumeWorkload runs w from cp, under a policy p built with the same
// parameters as the interrupted run's and options whose engine and
// limits match it.
func ResumeWorkload(cfg config.Config, w *Workload, p Policy, opts RunOptions, cp *Checkpoint) (WorkloadResult, *Checkpoint, error) {
	return Drive(cfg, Job{Workload: w, Policy: given(p), Opts: opts, From: cp})
}

// RunWorkload executes every kernel of w in order on this GPU.
func (g *GPU) RunWorkload(w *Workload, p Policy, opts RunOptions) (WorkloadResult, error) {
	return g.runKernelsFrom(w, p, opts, 0, newWorkloadAgg(w, p))
}

// given is a Job.Policy that hands out p.
func given(p Policy) func() (Policy, error) { return func() (Policy, error) { return p, nil } }

// result drops Drive's checkpoint.
func result(res WorkloadResult, _ *Checkpoint, err error) (WorkloadResult, error) { return res, err }
