package snaptest

import (
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDerivedStateTableMatchesTheLists: the first column of
// ARCHITECTURE's derived-state table names exactly the fields the
// packages' stateFields lists call derived. The document stays prose;
// this greps it, and greps the lists where they are checked in.
func TestDerivedStateTableMatchesTheLists(t *testing.T) {
	lists, err := filepath.Glob("../../*/fields_test.go")
	if err != nil || len(lists) < 7 {
		t.Fatalf("field lists: %v, err %v", lists, err)
	}
	listed := map[string]bool{}
	for _, path := range lists {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`"(\w+\.\w+)":\s*"derived: \w`).FindAllSubmatch(src, -1) {
			listed[string(m[1])] = true
		}
	}
	doc, err := os.ReadFile("../../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(doc), "\n| Field | State | Derived from |")
	if !found {
		t.Fatal("docs/ARCHITECTURE.md has no derived-state table with a Field column")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	tabled := map[string]bool{}
	for _, row := range strings.Split(table, "\n")[2:] {
		cell, _, _ := strings.Cut(strings.TrimPrefix(row, "|"), "|")
		for _, m := range regexp.MustCompile("`(\\w+\\.\\w+)`").FindAllStringSubmatch(cell, -1) {
			tabled[m[1]] = true
		}
	}
	if len(listed) == 0 || !maps.Equal(listed, tabled) {
		t.Errorf("derived fields differ:\n the lists: %v\n the table: %v", slices.Sorted(maps.Keys(listed)), slices.Sorted(maps.Keys(tabled)))
	}
}
