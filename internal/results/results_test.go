package results

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"poise/internal/atomicfile"
	"poise/internal/cache"
	"poise/internal/gridplan"
	"poise/internal/sim"
	"poise/internal/sm"
	"poise/internal/testutil"
)

// cellsForTest builds a small grid of cells with awkward float values
// and populated nested result structures, so round-trip tests exercise
// the full object graph rather than flat zero values.
func cellsForTest(workloads, schemes int) ([]CellResult, *gridplan.CellPlan) {
	plan := &gridplan.CellPlan{Version: gridplan.PlanVersion}
	var cells []CellResult
	for w := 0; w < workloads; w++ {
		for s := 0; s < schemes; s++ {
			t := gridplan.CellTask{
				Tag: "cfg", Grid: "scheme", Workload: fmt.Sprintf("wl%02d", w),
				Digest: fmt.Sprintf("d%02d", w), Scheme: fmt.Sprintf("s%d", s), Ord: s,
			}
			plan.Cells = append(plan.Cells, t)
			c := CellResult{
				Result: sim.WorkloadResult{
					Workload: t.Workload, Policy: t.Scheme,
					Cycles: int64(1000*w + s), Instructions: int64(777 * (w + 1)),
					IPC: float64(w+1) / 3, AML: 1.0 / 7,
					L1: cache.Stats{Accesses: 100, Hits: 33, IntraWarpHits: 11},
					PerKernel: []sim.KernelResult{{
						Kernel: "k0", Cycles: 42, IPC: 2.0 / 3,
						PerSM:    []sm.Counters{{Instructions: 9, AMLSum: 5, AMLCount: 2}},
						TupleLog: []sim.TupleEvent{{Cycle: 3, SM: 0, N: 8, P: 4, Predicted: true}},
					}},
				},
			}
			if s == 1 {
				c.DispN, c.DispP, c.DispE, c.HasDisp = 1.0/3, 2.0/7, 0.123456789012345, true
			}
			cells = append(cells, c.FromTask(t))
		}
	}
	return cells, plan
}

func TestMergeAnyShardCountIdenticalAndRejectsDuplicates(t *testing.T) {
	cells, plan := cellsForTest(3, 4)
	want, err := Merge(cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3} {
		var shards [][]CellResult
		for i := 0; i < n; i++ {
			shards = append(shards, testutil.Deal(cells, i, n))
		}
		got, err := Merge(shards...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("merge of %d shards differs from single-shard merge", n)
		}
		if err := Verify(plan, got); err != nil {
			t.Fatalf("n=%d: complete merge failed verification: %v", n, err)
		}
	}
	if _, err := Merge(cells, cells[:1]); err == nil {
		t.Fatal("duplicate cell must fail the merge")
	}
}

func TestVerifyCatchesMissingExtraAndDigestDrift(t *testing.T) {
	cells, plan := cellsForTest(2, 2)
	if err := Verify(plan, cells[1:]); err == nil {
		t.Fatal("missing cell must fail verification")
	}
	extra := append(append([]CellResult(nil), cells...),
		CellResult{Tag: "cfg", Grid: "scheme", Workload: "ghost", Scheme: "s0"})
	if err := Verify(plan, extra); err == nil {
		t.Fatal("extra cell must fail verification")
	}
	drift := append([]CellResult(nil), cells...)
	drift[0].Digest = "deadbeef"
	err := Verify(plan, drift)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest drift must fail verification, got %v", err)
	}
}

func TestStoreSaveLoadAndCorruption(t *testing.T) {
	cells, _ := cellsForTest(2, 3)
	st := Store{Dir: t.TempDir()}
	if err := st.Save("cfg", "scheme", cells); err != nil {
		t.Fatal(err)
	}
	back, err := st.Load("cfg", "scheme")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, back) {
		t.Fatal("store round trip is not DeepEqual-identical")
	}
	if _, err := st.Load("cfg", "other"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing entry must be ErrNotExist, got %v", err)
	}
	// A mismatched tag is a different entry, not this one served stale.
	if _, err := st.Load("othercfg", "scheme"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("different tag must miss, got %v", err)
	}
	// Corrupt the entry: Load must report ErrCorrupt, not garbage.
	files, _ := filepath.Glob(filepath.Join(st.Dir, "*.cells.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 cells file, got %v", files)
	}
	if err := os.WriteFile(files[0], []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("cfg", "scheme"); !errors.Is(err, atomicfile.ErrCorrupt) {
		t.Fatalf("corrupt entry must be ErrCorrupt, got %v", err)
	}
	if s := (Store{}); true {
		if err := s.Save("cfg", "g", cells); err == nil {
			t.Fatal("dirless store must refuse Save")
		}
		if _, err := s.Load("cfg", "g"); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("dirless store must miss on Load")
		}
	}
}
