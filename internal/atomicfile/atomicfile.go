// Package atomicfile is the repository's one crash-safe file write.
// Every cache entry, checkpoint, round file and weights file goes
// through it, so a reader — or a process restarted after a crash — sees
// either the previous content of a path or the new one, never a torn
// file.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

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
