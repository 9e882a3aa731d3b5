package results

import (
	"encoding/json"
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

// ErrCorrupt tags cache entries that exist but cannot be decoded
// (truncated writes, garbled JSON). Callers distinguish it from
// os.ErrNotExist with errors.Is; the experiments layer treats both as
// "no usable entry" and re-runs the grid, overwriting the damage — the
// same repair discipline profile.Store's LoadOrSweep uses.
var ErrCorrupt = errors.New("corrupt cell results entry")

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

// Save writes the merged cell set for (tag, grid), atomically: a crash
// mid-write leaves the previous entry, not a torn one.
func (s Store) Save(tag, grid string, cells []CellResult) error {
	if s.Dir == "" {
		return errors.New("results: store has no directory")
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cellsFile{Version: gridplan.PlanVersion, Tag: tag, Grid: grid, Cells: cells}, "", " ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(s.path(tag, grid), data)
}

// Load reads the merged cell set for (tag, grid); it returns
// os.ErrNotExist if absent and an ErrCorrupt-wrapping error if present
// but undecodable or inconsistent.
func (s Store) Load(tag, grid string) ([]CellResult, error) {
	if s.Dir == "" {
		return nil, os.ErrNotExist
	}
	data, err := os.ReadFile(s.path(tag, grid))
	if err != nil {
		return nil, err
	}
	var f cellsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("results: %s: %w (%v)", s.path(tag, grid), ErrCorrupt, err)
	}
	if f.Version != gridplan.PlanVersion || f.Tag != tag || f.Grid != grid || len(f.Cells) == 0 {
		return nil, fmt.Errorf("results: %s: %w (decoded to an inconsistent or empty entry)", s.path(tag, grid), ErrCorrupt)
	}
	return f.Cells, nil
}
