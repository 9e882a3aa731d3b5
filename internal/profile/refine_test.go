package profile

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// prunedTiny runs a pruned sweep of the shared tiny kernel, nothing
// cached.
func prunedTiny(t *testing.T) (*Profile, RefineStats) {
	t.Helper()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	out, err := Store{}.LoadOrSweepAll(testutil.TinyConfig(), []*trace.Kernel{k}, SweepOptions{StepN: 2, StepP: 2, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	return out[0].Profile, out[0].Stats
}

func TestPrunedSweepMatchesExhaustiveTuples(t *testing.T) {
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	opts := SweepOptions{StepN: 2, StepP: 2}
	ex, err := Sweep(testutil.TinyConfig(), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	pr, stats := prunedTiny(t)
	if pr.Kernel != ex.Kernel || pr.MaxN != ex.MaxN || pr.Baseline != ex.Baseline {
		t.Fatalf("pruned header %+v differs from exhaustive %+v", pr, ex)
	}
	if g, w := pr.Best(), ex.Best(); g != w {
		t.Fatalf("pruned Best %+v != exhaustive %+v", g, w)
	}
	if g, w := pr.BestDiagonal(), ex.BestDiagonal(); g != w {
		t.Fatalf("pruned BestDiagonal %+v != exhaustive %+v", g, w)
	}
	// Every pruned point must be the exhaustive point, bit for bit.
	for _, pt := range pr.Points {
		if xpt, ok := ex.Lookup(pt.N, pt.P); !ok || xpt != pt {
			t.Fatalf("pruned point %+v differs from exhaustive %+v", pt, xpt)
		}
	}
	if stats.Simulated != len(pr.Points) || stats.GridPoints != len(ex.Points) {
		t.Fatalf("stats %+v inconsistent with profiles (%d pruned, %d exhaustive points)",
			stats, len(pr.Points), len(ex.Points))
	}
	if stats.Rounds < 1 {
		t.Fatalf("stats %+v reports no rounds", stats)
	}
}

// TestRefineRoundsShardIdentical is the composition contract with the
// plan pipeline: executing every refinement round as 1, 2 or 3 hands
// of its plan and merging must reproduce the in-process pruned sweep
// point for point — so a fleet's multi-process refinement can never
// diverge from the in-process one.
func TestRefineRoundsShardIdentical(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	opts := SweepOptions{StepN: 2, StepP: 2}
	want, wantStats := prunedTiny(t)

	for _, shards := range []int{1, 2, 3} {
		var all []gridplan.Measurement
		rounds := 0
		for round := 0; ; round++ {
			plan, done, err := refinePlan(newEntry("t", k), cfg, opts, round, all)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			var parts [][]gridplan.Measurement
			for i := 0; i < shards; i++ {
				ms, err := RunTasks(cfg, kernelSet(k), testutil.Deal(plan.Tasks, i, shards), opts)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, ms)
			}
			merged, err := gridplan.Merge(parts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Verify(merged); err != nil {
				t.Fatal(err)
			}
			if all, err = gridplan.Merge(all, merged); err != nil {
				t.Fatal(err)
			}
			rounds++
		}
		got, err := MergeShards(k.Name, all)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("%d-shard refinement diverged from in-process pruned sweep", shards)
		}
		if rounds != wantStats.Rounds {
			t.Fatalf("%d-shard refinement took %d rounds, in-process took %d", shards, rounds, wantStats.Rounds)
		}
	}
}

// TestLoadOrSweepPrunedResume pins round persistence: a pruned
// LoadOrSweepAll caches its rounds and final profile; re-running after
// deleting only the final profile resumes from the cached rounds
// without simulating anything (the refinement is already converged,
// so a cancelled context proves no simulation happens); and a corrupt
// round file degrades to a clean re-sweep. The stats count what each
// call simulated: the sweep once, the cache hit and the resume nothing.
func TestLoadOrSweepPrunedResume(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	opts := SweepOptions{StepN: 2, StepP: 2, Refine: true}
	st := Store{Dir: t.TempDir()}
	e := newEntry(SweepTag(cfg, opts), k)
	sweep := func(opts SweepOptions) Swept {
		t.Helper()
		out, err := st.LoadOrSweepAll(cfg, []*trace.Kernel{k}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}

	first := sweep(opts)
	want := first.Profile
	if len(st.loadRounds(e)) == 0 {
		t.Fatal("pruned LoadOrSweepAll persisted no rounds")
	}
	if _, swept := prunedTiny(t); first.Stats != swept {
		t.Fatalf("stats of one sweep: %+v; a sweep with no store reports %+v", first.Stats, swept)
	}
	// A second call hits the profile cache.
	again := sweep(opts)
	if !reflect.DeepEqual(again.Profile.Points, want.Points) {
		t.Fatal("cached pruned profile differs")
	}
	if again.Stats != (RefineStats{}) {
		t.Fatalf("a cache hit reports a sweep: %+v", again.Stats)
	}

	// Delete the final profile but keep the rounds: the resume must
	// reassemble the identical profile purely from the cached rounds,
	// without simulating — proven by a cancelled context, which fails
	// any simulation.
	if err := os.Remove(st.path(e)); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := opts
	stopped.Ctx = cancelled
	resumed := sweep(stopped)
	if !reflect.DeepEqual(resumed.Profile.Points, want.Points) {
		t.Fatal("resumed pruned profile differs from the original (the resume re-simulated?)")
	}
	if got := resumed.Stats; got.Simulated != 0 || got.Rounds != 0 {
		t.Fatalf("a resume from complete rounds simulated something: %+v", got)
	}

	// Corrupt round 0: the prefix loader stops there, the stale later
	// rounds cannot extend an empty prefix consistently, and the
	// refinement restarts cleanly — same profile, repaired cache.
	if err := os.Remove(st.path(e)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.roundPath(e, 0), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := loadOrSweep(st, cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repaired.Points, want.Points) {
		t.Fatal("repaired pruned profile differs from the original")
	}
}

func TestBuildRefinePlanDeterministic(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	opts := SweepOptions{StepN: 2, StepP: 2}
	a, doneA, err := refinePlan(newEntry("t", k), cfg, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, doneB, err := refinePlan(newEntry("t", k), cfg, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doneA || doneB {
		t.Fatal("round 0 cannot be empty")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("refinePlan is not deterministic")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Round 0 must include the corners and the coarse diagonal ends.
	keys := map[gridplan.Coord]bool{}
	maxN := cfg.WarpsPerSched
	for _, task := range a.Tasks {
		keys[gridplan.Coord{N: task.N, P: task.P}] = true
	}
	for _, c := range []gridplan.Coord{{N: 1, P: 1}, {N: maxN, P: 1}, {N: maxN, P: maxN}} {
		if !keys[c] {
			t.Fatalf("round 0 misses corner %+v", c)
		}
	}
	// A measurement off the target grid must be rejected, not silently
	// absorbed into the profile.
	if _, _, err := refinePlan(newEntry("t", k), cfg, opts, 1,
		[]gridplan.Measurement{{Kernel: k.Name, N: 2, P: 2, IPC: 1}}); err == nil {
		t.Fatal("off-grid prior measurement must error")
	}
}

func kernelSet(k *trace.Kernel) map[string]*trace.Kernel {
	return map[string]*trace.Kernel{k.Name: k}
}

// TestStoreKeysByContent: two kernels of one name and different content
// go through one store, whole-grid and refined. The second gets what a
// fresh store gives it, stats included: it is swept, never served the
// first's profile, and its refinement resumes none of the first's
// rounds (the last case leaves the store the first's rounds alone).
func TestStoreKeysByContent(t *testing.T) {
	cfg := testutil.TinyConfig()
	first, second := testutil.ThrashKernel("k", 64, 40, 4), testutil.ThrashKernel("k", 64, 60, 4)
	for _, c := range []struct{ refine, roundsOnly bool }{{false, false}, {true, false}, {true, true}} {
		opts := SweepOptions{StepN: 4, StepP: 4, Refine: c.refine}
		sweep := func(st Store, k *trace.Kernel) Swept {
			t.Helper()
			out, err := st.LoadOrSweepAll(cfg, []*trace.Kernel{k}, opts)
			if err != nil {
				t.Fatal(err)
			}
			return out[0]
		}
		shared := Store{Dir: t.TempDir()}
		sweep(shared, first)
		if c.roundsOnly {
			profiles, _ := filepath.Glob(filepath.Join(shared.Dir, "*.json"))
			for _, p := range profiles {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, want := sweep(shared, second), sweep(Store{Dir: t.TempDir()}, second)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: the second kernel named k got %+v from the shared store, %+v from a fresh one",
				c, got.Stats, want.Stats)
		}
	}
}
