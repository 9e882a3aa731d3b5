package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/workloads"
)

// TestGoldenCellPlans: every grid's cell plan at -sms 4, seed 0 and the
// default steps, byte for byte what testdata/cellplan_<grid>.jsonl
// holds. The files were written by the commit before the grids became
// scheme-list declarations, by this test itself: it writes a file that
// is missing and fails once. Never let the code under test write them;
// a plan that moves on purpose (a new scheme, a re-keyed tag) gets its
// file regenerated from the commit whose plans are the reference.
func TestGoldenCellPlans(t *testing.T) {
	h := NewHarness(Options{SMs: 4, Size: workloads.Small})
	for _, grid := range GridNames() {
		plan, err := h.CellPlan(grid)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := gridplan.WriteCellPlan(&got, plan); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "cellplan_"+grid+".jsonl")
		want, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("wrote the missing golden plan %s: check it in", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("grid %s: cell plan differs from %s", grid, path)
		}
	}
}
