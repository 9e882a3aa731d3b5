package profile

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"poise/internal/atomicfile"
	"poise/internal/gridplan"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// TestShardedSweepMatchesInProcess is the acceptance invariant of the
// plan pipeline: dealing a sweep plan into 1, 2 or 3 hands, running
// each as its own RunTasks call (as a fleet's worker processes would),
// and merging the parts must reproduce the in-process Sweep
// reflect.DeepEqual-exactly — including the speedup normalisation,
// whose baseline point lives in only one of the parts.
func TestShardedSweepMatchesInProcess(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("shardeq", 20, 12, 4)
	opts := SweepOptions{StepN: 4, StepP: 4}

	want, err := Sweep(cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildPlan("", cfg, k, opts)
	kernels := map[string]*trace.Kernel{k.Name: k}
	for _, n := range []int{1, 2, 3} {
		var shards [][]gridplan.Measurement
		for i := 0; i < n; i++ {
			ms, err := RunTasks(cfg, kernels, testutil.Deal(plan.Tasks, i, n), opts)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, ms)
		}
		got, err := MergeShards(k.Name, shards...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d-shard merge differs from in-process sweep:\nwant %+v\ngot  %+v", n, want, got)
		}
	}
}

func TestRunTasksRejectsDigestMismatch(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("digcheck", 16, 8, 2)
	plan := BuildPlan("tag", cfg, k, SweepOptions{StepN: 8, StepP: 8})

	drifted := testutil.ThrashKernel("digcheck", 16, 9, 2) // one extra iteration
	_, err := RunTasks(cfg, map[string]*trace.Kernel{k.Name: drifted}, plan.Tasks, SweepOptions{})
	if err == nil {
		t.Fatal("drifted kernel must fail the digest check")
	}
	if _, err := RunTasks(cfg, map[string]*trace.Kernel{}, plan.Tasks, SweepOptions{}); err == nil {
		t.Fatal("missing kernel must error")
	}
}

func TestMergeShardsNeedsBaseline(t *testing.T) {
	ms := []gridplan.Measurement{
		{Kernel: "k", N: 4, P: 2, IPC: 1},
		{Kernel: "k", N: 6, P: 1, IPC: 1}, // maxN=6, but (6,6) absent
	}
	if _, err := MergeShards("k", ms); err == nil {
		t.Fatal("missing baseline point must fail the merge")
	}
	if _, err := MergeShards("k"); err == nil {
		t.Fatal("empty merge must fail")
	}
	mixed := []gridplan.Measurement{
		{Kernel: "k", N: 2, P: 2, IPC: 1},
		{Kernel: "other", N: 1, P: 1, IPC: 1},
	}
	if _, err := MergeShards("k", mixed); err == nil {
		t.Fatal("mixed kernels must fail the merge")
	}
}

// TestLoadOrSweepReSweepsCorrupt is the corrupt-cache regression test:
// a truncated/garbled cache entry must surface as ErrCorrupt from
// Load, and LoadOrSweepAll must silently re-sweep and repair the entry
// instead of aborting the run.
func TestLoadOrSweepReSweepsCorrupt(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("corrupt", 16, 8, 2)
	opts := SweepOptions{StepN: 8, StepP: 8}

	want, err := loadOrSweep(st, cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := newEntry(SweepTag(cfg, opts), k)
	path := st.path(e)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"garbled":   []byte(`{"Kernel":`),
		"empty":     nil,
		"wrong":     []byte(`{"Unrelated": true}`),
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.load(e); !errors.Is(err, atomicfile.ErrCorrupt) {
			t.Fatalf("%s: Load error = %v, want ErrCorrupt", name, err)
		}
		got, err := loadOrSweep(st, cfg, k, opts)
		if err != nil {
			t.Fatalf("%s: LoadOrSweepAll must re-sweep a corrupt entry, got %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: re-sweep diverged from the original profile", name)
		}
		// The damaged file must have been repaired.
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repaired, good) {
			t.Fatalf("%s: cache entry not repaired", name)
		}
	}
}

// TestLoadOrSweepAllWholeGridIsPerKernelSweep is the oracle of the
// whole-grid branch, which runs every missing kernel's grid as one task
// list on one pool: at one worker and at four, over kernels of
// different shapes (one with a lower occupancy bound, so the grids
// differ), its profiles are reflect.DeepEqual to per-kernel Sweeps, they
// carry no refinement books, and the store receives the bytes that
// saving those Sweeps writes.
func TestLoadOrSweepAllWholeGridIsPerKernelSweep(t *testing.T) {
	cfg := testutil.TinyConfig()
	capped := testutil.ThrashKernel("oracle#2", 12, 10, 2)
	capped.MaxWarpsPerSched = cfg.WarpsPerSched / 2
	kernels := []*trace.Kernel{
		testutil.ThrashKernel("oracle#0", 20, 12, 4),
		testutil.ThrashKernel("oracle#1", 32, 8, 3),
		capped,
	}
	opts := SweepOptions{StepN: 3, StepP: 3}
	entryOf := func(k *trace.Kernel) entry { return newEntry(SweepTag(cfg, opts), k) }
	want := Store{Dir: t.TempDir()}
	var wantProfiles []*Profile
	for _, k := range kernels {
		pr, err := Sweep(cfg, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.save(entryOf(k), pr); err != nil {
			t.Fatal(err)
		}
		wantProfiles = append(wantProfiles, pr)
	}
	for _, workers := range []int{1, 4} {
		st := Store{Dir: t.TempDir()}
		opts.Workers = workers
		got, err := st.LoadOrSweepAll(cfg, kernels, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range kernels {
			if !reflect.DeepEqual(got[i], Swept{Profile: wantProfiles[i]}) {
				t.Errorf("workers %d: %s differs from its own Sweep", workers, k.Name)
			}
			w, err := os.ReadFile(want.path(entryOf(k)))
			if err != nil {
				t.Fatal(err)
			}
			if g, err := os.ReadFile(st.path(entryOf(k))); err != nil || !bytes.Equal(g, w) {
				t.Errorf("workers %d: the cache file of %s is not what saving its Sweep writes (%v)", workers, k.Name, err)
			}
		}
	}
}
