package profile

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// TestPreemptedSweepResumesIdentically is the sweep-level preemption
// invariant: interrupting a RunTasks call mid-task (as a SIGTERM'd
// worker would), then re-running the same shard against the same
// checkpoint store in a "second process", must merge to a profile
// reflect.DeepEqual-identical to an uninterrupted sweep.
func TestPreemptedSweepResumesIdentically(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("preempt", 20, 12, 4)
	opts := SweepOptions{StepN: 4, StepP: 4}
	kernels := map[string]*trace.Kernel{k.Name: k}
	plan := BuildPlan("", cfg, k, opts)

	clean, err := RunTasks(cfg, kernels, plan.Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MergeShards(k.Name, clean)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt early enough that every grid point is still in flight.
	at := clean[0].Cycles
	for _, m := range clean {
		if m.Cycles < at {
			at = m.Cycles
		}
	}
	at /= 2
	if at < 1 {
		t.Skipf("tasks too short (%d cycles) to interrupt", at)
	}

	for _, workers := range []int{1, 3} {
		store, err := snap.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		io := opts
		io.Workers = workers
		io.Interrupt = &sim.InterruptCtl{AtCycle: at}
		io.Checkpoints = store
		if _, err := RunTasks(cfg, kernels, plan.Tasks, io); !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("workers=%d: interrupted RunTasks: got %v, want ErrInterrupted", workers, err)
		}
		ents, err := os.ReadDir(store.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			t.Fatalf("workers=%d: preemption left no checkpoints", workers)
		}

		ro := opts
		ro.Workers = workers
		ro.Checkpoints = store
		ms, err := RunTasks(cfg, kernels, plan.Tasks, ro)
		if err != nil {
			t.Fatalf("workers=%d: resumed RunTasks: %v", workers, err)
		}
		got, err := MergeShards(k.Name, ms)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: resumed sweep diverges from uninterrupted sweep:\nwant %+v\ngot  %+v", workers, want, got)
		}
		// Consumed checkpoints are scrubbed so a later sweep with the
		// same store never probes stale state.
		ents, err = os.ReadDir(store.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("workers=%d: %d checkpoint(s) left after resume", workers, len(ents))
		}
	}
}

// TestForeignContainerUnderTaskKeyIsIgnored: a container of another
// kind stored under a task's key is not the task's checkpoint — a
// KindTask one is what an older build wrote. sim.Drive leaves it
// where it is and runs the task from the start, so the sweep still
// equals an uninterrupted one.
func TestForeignContainerUnderTaskKeyIsIgnored(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("foreign", 20, 12, 4)
	opts := SweepOptions{StepN: 4, StepP: 4}
	kernels := map[string]*trace.Kernel{k.Name: k}
	plan := BuildPlan("", cfg, k, opts)
	clean, err := RunTasks(cfg, kernels, plan.Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Real task states, from a preempted sweep, relabelled as the kinds
	// no sweep writes: task checkpoints and kernel boundaries.
	store, err := snap.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	io := opts
	io.Interrupt = &sim.InterruptCtl{AtCycle: 1}
	io.Checkpoints = store
	if _, err := RunTasks(cfg, kernels, plan.Tasks, io); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("interrupted RunTasks: got %v, want ErrInterrupted", err)
	}
	relabelled := 0
	for i, task := range plan.Tasks {
		sn, err := store.Load(taskCheckpointKey(task))
		if err != nil {
			continue
		}
		sn.Kind = []snap.Kind{snap.KindTask, snap.KindBoundary}[i%2]
		if err := store.Save(sn); err != nil {
			t.Fatal(err)
		}
		relabelled++
	}
	if relabelled == 0 {
		t.Fatal("preemption left no task checkpoints")
	}

	ro := opts
	ro.Checkpoints = store
	got, err := RunTasks(cfg, kernels, plan.Tasks, ro)
	if err != nil {
		t.Fatalf("sweep over foreign containers: %v", err)
	}
	if !reflect.DeepEqual(clean, got) {
		t.Fatalf("sweep over foreign containers diverges:\nwant %+v\ngot  %+v", clean, got)
	}
	ents, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != relabelled {
		t.Fatalf("%d containers left of %d: a foreign one was taken for a task checkpoint", len(ents), relabelled)
	}
}
