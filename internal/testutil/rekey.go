package testutil

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Rekey copies the files of dir into a new temporary directory under
// other profile-store keys: a file name that starts with a key of names
// starts with its value instead, and every `"tag":"t"` for t a key of
// tags reads `"tag":"<tags[t]>"`. Golden files a parent commit wrote
// under its own keys are compared through it, every other byte as it
// was written.
func Rekey(t testing.TB, dir string, names, tags map[string]string) string {
	t.Helper()
	out := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for old, tag := range tags {
			data = bytes.ReplaceAll(data, []byte(`"tag":"`+old+`"`), []byte(`"tag":"`+tag+`"`))
		}
		name := e.Name()
		for old, key := range names {
			if rest, ok := strings.CutPrefix(name, old); ok {
				name = key + rest
			}
		}
		if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
