// Package atomicfile is the repository's one crash-safe file write.
// Every cache entry, checkpoint, round file and weights file goes
// through it, so a reader — or a process restarted after a crash — sees
// either the previous content of a path or the new one, never a torn
// file. SaveJSON and LoadJSON are the JSON cache entries' write and
// read on top of it, with the one sentinel for an entry that does not
// decode.
package atomicfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ErrCorrupt tags a cache entry that exists but cannot be used: a
// truncated write, garbled JSON, or content its reader finds
// inconsistent. Callers tell it from fs.ErrNotExist with errors.Is; the
// profile and cell caches treat both as a miss and overwrite the damage.
var ErrCorrupt = errors.New("corrupt cache entry")

// Write replaces path with what write produces: the bytes go to a
// temporary file in path's own directory (a rename is atomic only
// within one file system), which is made world-readable, closed and
// renamed over path. On any failure — write's included — the temporary
// file is removed and path keeps its previous content.
func Write(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".atomic-*.tmp")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// WriteFile is Write for bytes already in memory.
func WriteFile(path string, data []byte) error {
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SaveJSON writes v to path as JSON indented by one space, creating
// path's directory first, through WriteFile.
func SaveJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return WriteFile(path, data)
}

// LoadJSON decodes the JSON file at path into v. A missing file returns
// os.ReadFile's fs.ErrNotExist-wrapping error, content that does not
// decode an ErrCorrupt-wrapping one.
func LoadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w (%v)", path, ErrCorrupt, err)
	}
	return nil
}
