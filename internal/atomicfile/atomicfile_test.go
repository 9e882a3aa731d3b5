package atomicfile

import (
	"errors"
	"io"
	"io/fs"
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

// TestJSONEntries: SaveJSON creates the directory and writes one-space
// indented JSON that LoadJSON reads back; a missing file is
// fs.ErrNotExist and a garbled one ErrCorrupt, never a zero value.
func TestJSONEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache", "entry.json")
	type entry struct{ A []int }
	var got entry
	if err := LoadJSON(path, &got); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing entry: %v, want fs.ErrNotExist", err)
	}
	if err := SaveJSON(path, entry{A: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "{\n \"A\": [\n  1,\n  2\n ]\n}" {
		t.Fatalf("file bytes %q", data)
	}
	if err := LoadJSON(path, &got); err != nil || len(got.A) != 2 || got.A[1] != 2 {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if err := WriteFile(path, []byte(`{"A": [1,`)); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(path, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated entry: %v, want ErrCorrupt", err)
	}
}
