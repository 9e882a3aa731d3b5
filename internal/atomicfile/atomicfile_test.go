package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteReplacesOrLeavesAlone: a successful Write replaces the file
// with mode 0644; a write that fails half way, and a rename that cannot
// happen, leave the previous content and no temporary file.
func TestWriteReplacesOrLeavesAlone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("content %q after a second write", got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v (%v), want 0644", fi.Mode(), err)
	}

	torn := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a rec")); err != nil {
			return err
		}
		return torn
	})
	if !errors.Is(err, torn) {
		t.Fatalf("Write returned %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("a failed write left %q", got)
	}

	// Rename cannot replace a non-empty directory.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, []byte("x")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if err := WriteFile(filepath.Join(dir, "missing", "entry"), []byte("x")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Fatalf("directory holds %v, want only entry.json and blocked", names)
	}
}
