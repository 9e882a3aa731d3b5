package fleet

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// TestFleetPreemptedWorkerResumesElsewhere is the preemptible-worker
// acceptance invariant: a worker interrupted mid-task (the SIGTERM /
// lease-loss path) checkpoints its in-flight task to the shared store
// and exits WITHOUT completing it; after the lease lapses, a different
// worker process re-leases the task, resumes it from the checkpoint,
// and the campaign merges exactly the measurements of an uninterrupted
// single-process run.
func TestFleetPreemptedWorkerResumesElsewhere(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("fleetpreempt", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 4, StepP: 4}
	tag := "preempttag"
	kernels := map[string]*trace.Kernel{k.Name: k}
	plan := profile.BuildPlan(tag, cfg, k, opts)

	// Reference measurements from an uninterrupted in-process run.
	ms, err := profile.RunTasks(cfg, kernels, plan.Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Preempt mid-task: before any point can finish.
	at := ms[0].Cycles
	for _, m := range ms {
		if m.Cycles < at {
			at = m.Cycles
		}
	}
	if at /= 2; at < 1 {
		t.Skipf("tasks too short to interrupt")
	}

	dir := t.TempDir()
	store, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(ProfileCampaign{Plan: plan},
		Options{LeaseTasks: 4, LeaseTTL: 200 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Phase 1: the victim leases a batch and is preempted inside its
	// first task. It must exit with ErrInterrupted, leave a checkpoint,
	// and NOT complete the task (the lease lapses instead).
	victimOpts := opts
	victimOpts.Interrupt = &sim.InterruptCtl{AtCycle: at}
	victimOpts.Checkpoints = store
	victim := &Worker{Name: "victim", Base: srv.URL, Poll: 5 * time.Millisecond,
		Executors: profileExecutors(kernels, victimOpts), Logf: t.Logf}
	if err := victim.Run(ctx); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("victim exited with %v, want ErrInterrupted", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("victim left no checkpoint in the shared store")
	}
	// Phase 2: a fresh worker process pointed at the same checkpoint
	// store serves the rest of the campaign, picking up the victim's
	// task after its lease expires and resuming it mid-kernel.
	survivorOpts := opts
	survivorOpts.Checkpoints = store
	survivor := &Worker{Name: "survivor", Base: srv.URL, Poll: 5 * time.Millisecond,
		Executors: profileExecutors(kernels, survivorOpts), Logf: t.Logf}
	done := make(chan error, 1)
	go func() { done <- survivor.Run(ctx) }()
	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if st := coord.Stats(); st.Expired < 1 {
		t.Fatalf("stats %+v: the victim's lease never expired", st)
	}

	sameMeasurements(t, ms, res)
	// The survivor consumed the checkpoint on resume.
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d checkpoint(s) left after the campaign completed", len(ents))
	}
}
