package results

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"poise/internal/atomicfile"
	"poise/internal/gridplan"
)

// Store caches executed experiment grids on disk, keyed by a
// caller-supplied configuration tag and the grid name — the same
// contract profile.Store has for sweeps: one merged JSON entry per
// (tag, grid) that figure runs load instead of re-simulating.
type Store struct {
	Dir string
}

func (s Store) path(tag, grid string) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s_%s.cells.json", tag, grid))
}

// cellsFile is the merged on-disk entry.
type cellsFile struct {
	Version int          `json:"version"`
	Tag     string       `json:"tag"`
	Grid    string       `json:"grid"`
	Cells   []CellResult `json:"cells"`
}

// Save writes the cell set for (tag, grid) merged, in key order whoever
// ran it, atomically: a crash mid-write leaves the previous entry, not a
// torn one.
func (s Store) Save(tag, grid string, cells []CellResult) error {
	if s.Dir == "" {
		return errors.New("results: store has no directory")
	}
	merged, err := Merge(cells)
	if err != nil {
		return err
	}
	return atomicfile.SaveJSON(s.path(tag, grid), cellsFile{Version: gridplan.PlanVersion, Tag: tag, Grid: grid, Cells: merged})
}

// Load reads the merged cell set for (tag, grid); it returns
// os.ErrNotExist if absent and an atomicfile.ErrCorrupt-wrapping error if
// present but undecodable or inconsistent. The experiments layer treats
// both as a miss and re-runs the grid, overwriting the damage.
func (s Store) Load(tag, grid string) ([]CellResult, error) {
	if s.Dir == "" {
		return nil, os.ErrNotExist
	}
	var f cellsFile
	if err := atomicfile.LoadJSON(s.path(tag, grid), &f); err != nil {
		return nil, err
	}
	if f.Version != gridplan.PlanVersion || f.Tag != tag || f.Grid != grid || len(f.Cells) == 0 {
		return nil, fmt.Errorf("results: %s: %w (decoded to an inconsistent or empty entry)", s.path(tag, grid), atomicfile.ErrCorrupt)
	}
	return f.Cells, nil
}
