package profile_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/snap"
)

// TestSaveAtomic: every writer of a file that a later run reads back —
// profile and cell cache entries, refinement round files, checkpoints,
// the weights file — goes through atomicfile. For each: Save replaces a
// damaged entry wholesale (the rename is the commit point); a Save that
// fails, here on a value that will not encode, leaves the previous
// content readable; and neither leaves a temporary file behind.
func TestSaveAtomic(t *testing.T) {
	nan := math.NaN()
	writers := []struct {
		name string
		// save writes the good value, or one that cannot be written,
		// to the same place under dir; load reads the good value back.
		save func(dir string, good bool) error
		load func(dir string) error
	}{
		{
			name: "profile.Store.Save",
			save: func(dir string, good bool) error {
				pr := &profile.Profile{
					Kernel: "k", MaxN: 2,
					Baseline: profile.Point{N: 2, P: 2, IPC: 1, Speedup: 1},
					Points:   []profile.Point{{N: 1, P: 1, IPC: 2, Speedup: 2}, {N: 2, P: 2, IPC: 1, Speedup: 1}},
				}
				if !good {
					pr.Points[0].IPC = nan
				}
				return profile.Store{Dir: dir}.Save("t", pr)
			},
			load: func(dir string) error {
				_, err := profile.Store{Dir: dir}.Load("t", "k")
				return err
			},
		},
		{
			name: "results.Store.Save",
			save: func(dir string, good bool) error {
				c := results.CellResult{Tag: "t", Grid: "scheme", Workload: "w", Scheme: "GTO"}
				if !good {
					c.Result.IPC = nan
				}
				return results.Store{Dir: dir}.Save("t", "scheme", []results.CellResult{c})
			},
			load: func(dir string) error {
				_, err := results.Store{Dir: dir}.Load("t", "scheme")
				return err
			},
		},
		{
			name: "gridplan.WriteMeasurementsFile",
			save: func(dir string, good bool) error {
				ms := []gridplan.Measurement{{Tag: "t", Kernel: "k", N: 1, P: 1, IPC: 2}, {Tag: "t", Kernel: "k", N: 2, P: 2, IPC: 1}}
				if !good {
					ms[1].IPC = nan // fails after the header and a record are written
				}
				return gridplan.WriteMeasurementsFile(filepath.Join(dir, "t_k.prune000.jsonl"), 0, 1, ms)
			},
			load: func(dir string) error {
				_, err := gridplan.ReadMeasurementsFile(filepath.Join(dir, "t_k.prune000.jsonl"))
				return err
			},
		},
		{
			name: "snap.Store.Save",
			save: func(dir string, good bool) error {
				st, err := snap.NewStore(dir)
				if err != nil {
					return err
				}
				sn := &snap.Snapshot{Kind: snap.KindTask, Key: "task|k", Workload: "k", State: []byte{1, 2, 3}}
				if !good {
					sn.Cycle = -1
				}
				return st.Save(sn)
			},
			load: func(dir string) error {
				st, err := snap.NewStore(dir)
				if err != nil {
					return err
				}
				_, err = st.Load("task|k")
				return err
			},
		},
		{
			name: "poise.Weights.Save",
			save: func(dir string, good bool) error {
				w, _ := poise.DefaultWeights()
				if !good {
					w.Alpha[0] = nan
				}
				return w.Save(filepath.Join(dir, "weights.json"))
			},
			load: func(dir string) error {
				_, err := poise.LoadWeights(filepath.Join(dir, "weights.json"))
				return err
			},
		},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			onlyEntry := func() string {
				t.Helper()
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 1 {
					t.Fatalf("the directory holds %d files, want the entry alone: %v", len(entries), entries)
				}
				return filepath.Join(dir, entries[0].Name())
			}
			if err := w.save(dir, true); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(onlyEntry(), []byte("{truncated"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := w.load(dir); err == nil {
				t.Fatal("the damaged entry loads")
			}
			if err := w.save(dir, true); err != nil {
				t.Fatal(err)
			}
			if err := w.load(dir); err != nil {
				t.Fatalf("Save did not replace the damaged entry: %v", err)
			}
			if err := w.save(dir, false); err == nil {
				t.Fatal("saving a value that cannot be encoded succeeded")
			}
			if err := w.load(dir); err != nil {
				t.Fatalf("a failed Save damaged the previous content: %v", err)
			}
			onlyEntry()
		})
	}
}
