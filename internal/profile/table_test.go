package profile

import (
	"strings"
	"testing"

	"poise/internal/config"
)

// tableProfile builds a tiny synthetic profile whose three optima are
// all distinct: best at (4,1), diagonal best at (2,2), and a scored
// optimum the Eq. 12 neighbourhood weighting selects.
func tableProfile(kernel string) *Profile {
	pr := &Profile{
		Kernel:   kernel,
		MaxN:     4,
		Baseline: Point{N: 4, P: 4, IPC: 1, Speedup: 1},
	}
	for n := 1; n <= 4; n++ {
		for p := 1; p <= n; p++ {
			sp := 1.0
			switch {
			case n == 4 && p == 1:
				sp = 1.5
			case n == 2 && p == 2:
				sp = 1.2
			case n == 3 && p == 1:
				sp = 1.4
			}
			pr.Points = append(pr.Points, Point{N: n, P: p, IPC: sp, Speedup: sp})
		}
	}
	pr.buildIndex()
	return pr
}

func TestBestTable(t *testing.T) {
	dir := t.TempDir()
	st := Store{Dir: dir}
	// Saved under unordered tags: the table must sort by kernel row.
	if err := st.save(testEntry("ztag", "bk"), tableProfile("bk")); err != nil {
		t.Fatal(err)
	}
	if err := st.save(testEntry("atag", "ak"), tableProfile("ak")); err != nil {
		t.Fatal(err)
	}
	table, err := BestTable(dir, config.DefaultPoise())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 rows, got %d:\n%s", len(lines), table)
	}
	if !strings.HasPrefix(lines[0], "ak") || !strings.HasPrefix(lines[1], "bk") {
		t.Fatalf("rows not sorted by kernel:\n%s", table)
	}
	if !strings.Contains(lines[0], "best ( 4, 1) 1.5000x") {
		t.Fatalf("Static-Best tuple wrong: %s", lines[0])
	}
	if !strings.Contains(lines[0], "swl ( 2, 2) 1.2000x") {
		t.Fatalf("SWL tuple wrong: %s", lines[0])
	}
	if !strings.HasSuffix(table, "\n") {
		t.Fatal("table must be newline-terminated")
	}

	// The rows API agrees with the rendered text.
	rows, err := BestTableRows(dir, config.DefaultPoise())
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].String(); got != lines[0] {
		t.Fatalf("row formatting drifted:\n%s\n%s", got, lines[0])
	}
}

func TestBestTableErrors(t *testing.T) {
	if _, err := BestTable("", config.DefaultPoise()); err == nil {
		t.Fatal("empty dir string must error")
	}
	if _, err := BestTable(t.TempDir(), config.DefaultPoise()); err == nil {
		t.Fatal("directory without profiles must error")
	}
	if _, err := BestTable("/nonexistent-poise-table-dir", config.DefaultPoise()); err == nil {
		t.Fatal("missing directory must error")
	}
}
