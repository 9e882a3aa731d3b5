package profile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// goldenRefinement is the set-up testdata/pr22_refine was written
// under: kernels mm#2 and mm#3 of the Small catalogue on 2 SMs, step 4,
// a tag each. mm#2 takes four rounds and mm#3 three, so a refinement
// over both ends with mm#3 converged and mm#2 still active.
func goldenRefinement(t *testing.T, store Store) (*Refinement, map[string]*trace.Kernel) {
	t.Helper()
	mm := workloads.NewCatalogue(workloads.Small).Must("mm")
	ka, kb := mm.Kernels[2], mm.Kernels[3]
	tags := map[string]string{ka.Name: "tagA", kb.Name: "tagB"}
	r := NewRefinement(config.Default().Scale(2), []*trace.Kernel{ka, kb},
		func(kernel string) string { return tags[kernel] },
		SweepOptions{StepN: 4, StepP: 4, Refine: true}, store)
	return r, map[string]*trace.Kernel{ka.Name: ka, kb.Name: kb}
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
// kernel by kernel; fleet/ the store fleet.RefineCampaign (its own
// state machine) filled when driven by hand from mm#3's round 0 on
// disk, the results handed back in key order as a coordinator does and
// the profiles saved with its SaveTo; plans/ the bytes that campaign
// published per generation. Never regenerate them with the code under
// test. The one Refinement must write all three: run in this process
// from nothing, and driven by hand from the resumed round.
func TestRefinementReproducesParentGoldens(t *testing.T) {
	golden := filepath.Join("testdata", "pr22_refine")

	inproc := Store{Dir: t.TempDir()}
	r, _ := goldenRefinement(t, inproc)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	refined, err := r.Profiles(inproc)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := refined[0].Stats, refined[1].Stats; a != (RefineStats{Rounds: 4, Simulated: 19, GridPoints: 23}) ||
		b != (RefineStats{Rounds: 3, Simulated: 16, GridPoints: 23}) {
		t.Errorf("stats %+v and %+v, the parent's PrunedSweep reported 4 rounds, 19 of 23 and 3 rounds, 16 of 23", a, b)
	}
	sameFiles(t, filepath.Join(golden, "inproc"), inproc.Dir)

	fleet := Store{Dir: t.TempDir()}
	const round0 = "tagB_mm#3.prune000.jsonl"
	data, err := os.ReadFile(filepath.Join(golden, "fleet", round0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fleet.Dir, round0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, kernels := goldenRefinement(t, fleet)
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
		name := filepath.Join(golden, "plans", fmt.Sprintf("gen%d.jsonl", gen))
		if want, err := os.ReadFile(name); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("generation %d differs from %s (%v):\n%s", gen, name, err, buf.Bytes())
		}
		ms, err := RunTasks(config.Default().Scale(2), kernels, plan.Tasks, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Fold(ms); err != nil {
			t.Fatal(err)
		}
	}
	if gen != 4 {
		t.Errorf("%d generations, the parent's campaign published 4", gen)
	}
	if refined, err = r.Profiles(fleet); err != nil {
		t.Fatal(err)
	}
	if st := refined[1].Stats; st.Rounds != 2 || st.Simulated != 16-6 {
		t.Errorf("mm#3 resumed from its 6-point round 0: stats %+v count what was resumed", st)
	}
	sameFiles(t, filepath.Join(golden, "fleet"), fleet.Dir)
}

// TestRefinementRestartsUnextendableRounds: cached rounds no round can
// be built on (here round 0 twice, as rounds 0 and 1) are a corrupt
// cache entry: the kernel starts over from round 0, overwrites them and
// ends with the profile a clean store gives.
func TestRefinementRestartsUnextendableRounds(t *testing.T) {
	golden := filepath.Join("testdata", "pr22_refine", "inproc")
	st := Store{Dir: t.TempDir()}
	data, err := os.ReadFile(filepath.Join(golden, "tagB_mm#3.prune000.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := os.WriteFile(st.roundPath("tagB", "mm#3", round), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	k := workloads.NewCatalogue(workloads.Small).Must("mm").Kernels[3]
	pr, err := loadOrSweep(st, "tagB", config.Default().Scale(2), k, SweepOptions{StepN: 4, StepP: 4, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Store{Dir: golden}.Load("tagB", "mm#3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, want) {
		t.Error("the restarted refinement's profile differs from a clean one's")
	}
	for _, name := range []string{"tagB_mm#3.prune001.jsonl", "tagB_mm#3.json"} {
		got, _ := os.ReadFile(filepath.Join(st.Dir, name))
		if want, _ := os.ReadFile(filepath.Join(golden, name)); !bytes.Equal(got, want) {
			t.Errorf("%s was not overwritten with what a clean run writes", name)
		}
	}
}
