package profile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/testutil"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// goldenRefinement is the set-up testdata/pr22_refine was written
// under: kernels mm#2 and mm#3 of the Small catalogue on 2 SMs, step 4.
// mm#2 takes four rounds and mm#3 three, so a refinement over both ends
// with mm#3 converged and mm#2 still active.
func goldenRefinement(t *testing.T, store Store) (*Refinement, map[string]*trace.Kernel) {
	t.Helper()
	ka, kb := goldenKernels()
	r := NewRefinement(goldenCfg, []*trace.Kernel{ka, kb}, goldenOpts, store)
	return r, map[string]*trace.Kernel{ka.Name: ka, kb.Name: kb}
}

var (
	goldenCfg  = config.Default().Scale(2)
	goldenOpts = SweepOptions{StepN: 4, StepP: 4, Refine: true}
)

func goldenKernels() (*trace.Kernel, *trace.Kernel) {
	mm := workloads.NewCatalogue(workloads.Small).Must("mm")
	return mm.Kernels[2], mm.Kernels[3]
}

// goldenDir is testdata/pr22_refine/sub under today's keys. The parent
// tagged mm#2's tasks "tagA" and mm#3's "tagB", per kernel, and named
// their files "<tag>_<kernel>"; the one key is SweepTag for both and
// Key for the files (testutil.Rekey).
func goldenDir(t *testing.T, sub string) string {
	t.Helper()
	ka, kb := goldenKernels()
	tag := SweepTag(goldenCfg, goldenOpts)
	return testutil.Rekey(t, filepath.Join("testdata", "pr22_refine", sub),
		map[string]string{
			"tagA_" + ka.Name: Key(goldenCfg, ka, goldenOpts),
			"tagB_" + kb.Name: Key(goldenCfg, kb, goldenOpts),
		},
		map[string]string{"tagA": tag, "tagB": tag})
}

// sameFiles requires dir to hold exactly the files of golden, byte for
// byte.
func sameFiles(t *testing.T, golden, dir string) {
	t.Helper()
	read := func(d string) map[string]string {
		out := map[string]string{}
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(d, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(data)
		}
		return out
	}
	want, got := read(golden), read(dir)
	for name := range want {
		if got[name] != want[name] {
			t.Errorf("%s differs from %s", filepath.Join(dir, name), filepath.Join(golden, name))
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s has %d files, %s has %d", dir, len(got), golden, len(want))
	}
}

// TestRefinementReproducesParentGoldens: the files under
// testdata/pr22_refine were written by the PARENT of the commit that
// made Refinement the one refinement loop (d540eb0), which had three:
// inproc/ is the store Store.LoadOrSweepAll (its own round loop) filled
// kernel by kernel; plans/ the bytes fleet.RefineCampaign (its own
// state machine) published per generation when driven by hand from
// mm#3's round 0 on disk. Never regenerate them with the code under
// test; goldenDir only renames their keys. The one Refinement must
// write both: run in this process from nothing, and driven by hand from
// the resumed round with each round's measurements handed back in
// reverse key order. A round file is in plan order whatever the arrival
// order, so both halves leave inproc/'s store.
func TestRefinementReproducesParentGoldens(t *testing.T) {
	inproc := Store{Dir: t.TempDir()}
	r, _ := goldenRefinement(t, inproc)
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	refined, err := r.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := refined[0].Stats, refined[1].Stats; a != (RefineStats{Rounds: 4, Simulated: 19, GridPoints: 23}) ||
		b != (RefineStats{Rounds: 3, Simulated: 16, GridPoints: 23}) {
		t.Errorf("stats %+v and %+v, the parent's PrunedSweep reported 4 rounds, 19 of 23 and 3 rounds, 16 of 23", a, b)
	}
	sameFiles(t, goldenDir(t, "inproc"), inproc.Dir)

	fleet := Store{Dir: t.TempDir()}
	golden := goldenDir(t, "inproc")
	_, kb := goldenKernels()
	round0 := Key(goldenCfg, kb, goldenOpts) + ".prune000.jsonl"
	data, err := os.ReadFile(filepath.Join(golden, round0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fleet.Dir, round0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, kernels := goldenRefinement(t, fleet)
	plans := goldenDir(t, "plans")
	gen := 0
	for ; ; gen++ {
		plan, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Tasks) == 0 {
			break
		}
		plan.Sort() // what a campaign publishes
		var buf bytes.Buffer
		if err := gridplan.WritePlan(&buf, plan); err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(plans, fmt.Sprintf("gen%d.jsonl", gen))
		if want, err := os.ReadFile(name); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("generation %d differs from %s (%v):\n%s", gen, name, err, buf.Bytes())
		}
		ms, err := RunTasks(config.Default().Scale(2), kernels, plan.Tasks, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		slices.Reverse(ms)
		if err := r.Fold(ms); err != nil {
			t.Fatal(err)
		}
	}
	if gen != 4 {
		t.Errorf("%d generations, the parent's campaign published 4", gen)
	}
	if refined, err = r.Profiles(); err != nil {
		t.Fatal(err)
	}
	if st := refined[1].Stats; st.Rounds != 2 || st.Simulated != 16-6 {
		t.Errorf("mm#3 resumed from its 6-point round 0: stats %+v count what was resumed", st)
	}
	sameFiles(t, golden, fleet.Dir)
}

// TestRefinementRestartsUnextendableRounds: cached rounds no round can
// be built on (here round 0 twice, as rounds 0 and 1) are a corrupt
// cache entry: the kernel starts over from round 0, overwrites them and
// ends with the profile a clean store gives.
func TestRefinementRestartsUnextendableRounds(t *testing.T) {
	golden := goldenDir(t, "inproc")
	st := Store{Dir: t.TempDir()}
	_, k := goldenKernels()
	e := newEntry(SweepTag(goldenCfg, goldenOpts), k)
	data, err := os.ReadFile(Store{Dir: golden}.roundPath(e, 0))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := os.WriteFile(st.roundPath(e, round), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pr, err := loadOrSweep(st, goldenCfg, k, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Store{Dir: golden}.load(e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, want) {
		t.Error("the restarted refinement's profile differs from a clean one's")
	}
	for _, name := range []string{e.name() + ".prune001.jsonl", e.name() + ".json"} {
		got, _ := os.ReadFile(filepath.Join(st.Dir, name))
		if want, _ := os.ReadFile(filepath.Join(golden, name)); !bytes.Equal(got, want) {
			t.Errorf("%s was not overwritten with what a clean run writes", name)
		}
	}
}
