package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"poise/internal/experiments"
)

// fig7Golden parses the Fig. 7 table of the golden results file: IPC
// normalised to GTO, one row a workload plus the H-Mean row, one column
// a scheme (experiments.SchemeNames).
func fig7Golden(t *testing.T) (rows []string, ipc map[string]map[string]float64) {
	t.Helper()
	f, err := os.Open("testdata/run_all_sms4_seed0.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ipc = map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "Fig. 7 ") {
	}
	sc.Scan()
	if header := strings.Fields(sc.Text()); !slices.Equal(header[1:], experiments.SchemeNames) {
		t.Fatalf("Fig. 7 header %q, want the schemes %v", header, experiments.SchemeNames)
	}
	sc.Scan() // the rule
	for sc.Scan() && sc.Text() != "" {
		cols := strings.Fields(sc.Text())
		if len(cols) != 1+len(experiments.SchemeNames) {
			t.Fatalf("Fig. 7 row %q", sc.Text())
		}
		rows = append(rows, cols[0])
		ipc[cols[0]] = map[string]float64{}
		for i, scheme := range experiments.SchemeNames {
			v, err := strconv.ParseFloat(cols[1+i], 64)
			if err != nil {
				t.Fatal(err)
			}
			ipc[cols[0]][scheme] = v
		}
	}
	if len(rows) < 2 || rows[len(rows)-1] != "H-Mean" {
		t.Fatalf("Fig. 7 rows %v", rows)
	}
	return rows, ipc
}

// fig7ExpectedFail is the paper's Fig. 7 ordering claims this
// reproduction fails at -sms 4, seed 0, each with why. The failing set
// must equal it: a claim that starts failing fails the test, and so
// does one that starts holding until its entry is deleted, so the list
// shrinks on purpose and never grows by accident.
var fig7ExpectedFail = map[string]string{
	"Poise >= SWL: H-Mean 1.074 < 1.356": "ROADMAP item 2: the p-axis model misses unseen kernels (offline p error 55 %), " +
		"so the matVec family sits at GTO, and every epoch pays 12 % of its cycles sampling at the two extreme tuples",
	"Poise >= PCAL-SWL: H-Mean 1.074 < 1.352": "as for SWL: PCAL-SWL starts from the profiled SWL tuple, Poise from a prediction",
	"Poise >= 0.95 x GTO on every workload: bfs 0.902, kmeans 0.785": "ROADMAP item 2(c): Static-Best is GTO on both, " +
		"and the fallback guard needs two struck epochs, which is the whole kernel at this size",
}

// TestFig7OrderingClaims evaluates the ordering claims of the paper's
// Fig. 7 (Poise beats SWL and PCAL-SWL, no scheme beats the Static-Best
// oracle, and, this repository's own floor, Poise loses at most 5 % to
// GTO anywhere) on the golden results file CI diffs poisebench against.
func TestFig7OrderingClaims(t *testing.T) {
	rows, ipc := fig7Golden(t)
	hmean := ipc["H-Mean"]
	failing := map[string]bool{}
	for _, rival := range []string{"SWL", "PCAL-SWL"} {
		if hmean["Poise"] < hmean[rival] {
			failing[fmt.Sprintf("Poise >= %s: H-Mean %.3f < %.3f", rival, hmean["Poise"], hmean[rival])] = true
		}
	}
	var under []string
	for _, row := range rows {
		for _, scheme := range experiments.SchemeNames {
			if ipc[row][scheme] > ipc[row]["Static-Best"] {
				failing[fmt.Sprintf("%s <= Static-Best: %s %.3f > %.3f", scheme, row, ipc[row][scheme], ipc[row]["Static-Best"])] = true
			}
		}
		if row != "H-Mean" && ipc[row]["Poise"] < 0.95*ipc[row]["GTO"] {
			under = append(under, fmt.Sprintf("%s %.3f", row, ipc[row]["Poise"]))
		}
	}
	if len(under) > 0 {
		failing["Poise >= 0.95 x GTO on every workload: "+strings.Join(under, ", ")] = true
	}
	for claim := range failing {
		if fig7ExpectedFail[claim] == "" {
			t.Errorf("a Fig. 7 claim fails that is not on the expected-fail list: %s", claim)
		}
	}
	for claim, reason := range fig7ExpectedFail {
		if !failing[claim] {
			t.Errorf("expected to fail, and does not (delete the entry if this is an improvement): %s (listed because: %s)", claim, reason)
		}
	}
}
