package main

import (
	"bufio"
	"fmt"
	"math"
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

// goldenNumber returns a number of the golden results file: the col-th
// after the text of the first line starting with prefix or, when that
// line is a section banner, on the section's H-Mean row. A percentage
// reads as its number.
func goldenNumber(t *testing.T, prefix string, col int) float64 {
	t.Helper()
	data, err := os.ReadFile("testdata/run_all_sms4_seed0.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut("\n"+string(data), "\n"+prefix)
	if strings.HasPrefix(prefix, "=====") {
		_, rest, found = strings.Cut(rest, "\nH-Mean")
	}
	line, _, _ := strings.Cut(rest, "\n")
	if cols := strings.Fields(line); found && col < len(cols) {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(cols[col], "%"), 64); err == nil {
			return v
		}
	}
	t.Fatalf("no number %d after %q in the golden file", col, prefix)
	return 0
}

// fig7ExpectedFail is the paper's claims (Fig. 7's orderings, Fig. 13's
// and Fig. 15's, and the headline numbers of Fig. 7, Table II, Fig. 11,
// 14 and 16) this reproduction
// fails at -sms 4, seed 0, each with why. The failing set
// must equal it: a claim that starts failing fails the test, and so
// does one that starts holding until its entry is deleted, so the list
// shrinks on purpose and never grows by accident.
var fig7ExpectedFail = map[string]string{
	"Poise >= SWL: H-Mean 1.074 < 1.356": "prediction is the largest loss (TestTaxLadder: Oracle (0,0) 1.362, Poise (0,0) 1.114), " +
		"and of it the N axis costs 0.174 (The GLM's N with oracle p 1.188) and the p axis 0.084 (Oracle N with the GLM's p 1.278)",
	"Poise >= PCAL-SWL: H-Mean 1.074 < 1.352": "as for SWL: PCAL-SWL starts from the profiled SWL tuple, Poise from the GLM's " +
		"(TestTaxLadder: Poise (0,0) 1.114 against Oracle (0,0) 1.362)",
	"Poise >= 0.95 x GTO on every workload: bfs 0.902, kmeans 0.785": "Static-Best is GTO on both, and the guard needs two struck " +
		"epochs, which is the whole kernel at this size (TestTaxLadder: guard's share +0.006, Poise (2,4), no guard 1.068)",
	"Fig. 14 mean Poise/GTO energy within 0.10 of 0.484: 0.920": "DRAM is a fixed latency plus one server per partition, so energy counts " +
		"accesses, not row activations, and Poise's speedup over GTO (TestTaxLadder: Poise (2,4) 1.074, paper 1.466) is most of what the ratio can move by",
	"Fig. 11 search helps: H-Mean at (2,4) 1.074 < 1.114 at (0,0)": "a search from the oracle start loses 0.193 " +
		"(TestTaxLadder: Oracle (0,0) 1.362, Oracle (2,4) 1.169), so the probes mis-rank tuples",
	"Table II offline p error within 10 points of 26%: 55.0%": "the GLM's p misses online too " +
		"(TestTaxLadder: Oracle N with the GLM's p 1.278, 0.084 under Oracle (0,0) 1.362)",
	"Fig. 15 Poise >= Random-restart: H-Mean 1.074 < 1.153": "random-restart samples no features and decides on GPU-wide IPC windows, " +
		"while sampling every epoch costs Poise 0.077 from a perfect start (TestTaxLadder: Oracle once 1.439, Oracle (0,0) 1.362) " +
		"and its per-SM search 0.193 (Oracle (2,4) 1.169)",
	"Fig. 13 every ablation costs performance: H-Mean -x6 1.000, -x5 1.008, -x4 1.000": "the features carry almost none of the decision " +
		"(TestTaxLadder: Poise (0,0) 1.114, 0.248 under Oracle (0,0) 1.362)",
	"Fig. 7 Poise H-Mean within 0.10 of 1.466: 1.074": "Static-Best reaches 1.465, so the gap is the HIE's (TestTaxLadder: " +
		"sampling 0.103 to Oracle (0,0) 1.362, prediction 0.248 to Poise (0,0) 1.114, search 0.040 to Poise (2,4) 1.074)",
}

// TestFig7OrderingClaims evaluates the ordering claims of the paper's
// Fig. 7 (Poise beats SWL and PCAL-SWL, no scheme beats the Static-Best
// oracle, and, this repository's own floor, Poise loses at most 5 % to
// GTO anywhere), Fig. 13's (dropping any feature costs performance)
// and Fig. 15's (Poise beats APCM and random-restart), and the headline
// numbers of Fig. 7 (Poise's H-mean over GTO), Table II (offline
// prediction error), Fig. 11 (search
// helps), Fig. 14 (energy), Fig. 16 (overhead on compute-intensive
// workloads) and §VII-I (cost per SM) on the golden results file CI
// diffs poisebench against.
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
	if h := hmean["Poise"]; math.Abs(h-experiments.Paper.PoiseHMean) > 0.10 {
		failing[fmt.Sprintf("Fig. 7 Poise H-Mean within 0.10 of %.3f: %.3f", experiments.Paper.PoiseHMean, h)] = true
	}
	// The other figures' headline numbers, read from the same file.
	if e := goldenNumber(t, "mean Poise/GTO energy: ", 0); math.Abs(e-experiments.Paper.EnergyRatio) > 0.10 {
		failing[fmt.Sprintf("Fig. 14 mean Poise/GTO energy within 0.10 of %.3f: %.3f", experiments.Paper.EnergyRatio, e)] = true
	}
	if h := goldenNumber(t, "H-Mean Poise vs GTO: ", 0); math.Abs(h-experiments.Paper.ComputeHMean) > 0.02 {
		failing[fmt.Sprintf("Fig. 16 compute H-Mean within 0.02 of %.3f: %.3f", experiments.Paper.ComputeHMean, h)] = true
	}
	// Table II: "offline prediction error on unseen kernels: N 16.5% (paper: 16%), p 55.0% (paper: 26%)".
	const offline = "offline prediction error on unseen kernels: N "
	if n := goldenNumber(t, offline, 0); math.Abs(n-experiments.Paper.OfflineErrN) > 5 {
		failing[fmt.Sprintf("Table II offline N error within 5 points of %.0f%%: %.1f%%", experiments.Paper.OfflineErrN, n)] = true
	}
	if p := goldenNumber(t, offline, 4); math.Abs(p-experiments.Paper.OfflineErrP) > 10 {
		failing[fmt.Sprintf("Table II offline p error within 10 points of %.0f%%: %.1f%%", experiments.Paper.OfflineErrP, p)] = true
	}
	// §VII-I: the paper counts the two 3-bit FSM registers as 0.75 B,
	// this code rounds them up to a byte.
	if c := goldenNumber(t, "total per SM:", 0); math.Abs(c-experiments.Paper.CostPerSM) > 0.25 {
		failing[fmt.Sprintf("§VII-I cost within 0.25 B of %.2f B per SM: %.2f B", experiments.Paper.CostPerSM, c)] = true
	}
	// Fig. 11's columns are the strides (0,0) (1,1) (2,2) (2,4) (4,4).
	if pure, searched := goldenNumber(t, "===== Fig. 11", 0), goldenNumber(t, "===== Fig. 11", 3); searched < pure {
		failing[fmt.Sprintf("Fig. 11 search helps: H-Mean at (2,4) %.3f < %.3f at (0,0)", searched, pure)] = true
	}
	// Fig. 13's columns drop one feature each: x7 x6 x5 x4 x3.
	var free []string
	for i, col := range []string{"-x7", "-x6", "-x5", "-x4", "-x3"} {
		if h := goldenNumber(t, "===== Fig. 13", i); h >= 1 {
			free = append(free, fmt.Sprintf("%s %.3f", col, h))
		}
	}
	if len(free) > 0 {
		failing["Fig. 13 every ablation costs performance: H-Mean "+strings.Join(free, ", ")] = true
	}
	// Fig. 15's columns are APCM, Random-restart and Poise.
	poise := goldenNumber(t, "===== Fig. 15", 2)
	for i, rival := range []string{"APCM", "Random-restart"} {
		if h := goldenNumber(t, "===== Fig. 15", i); poise < h {
			failing[fmt.Sprintf("Fig. 15 Poise >= %s: H-Mean %.3f < %.3f", rival, poise, h)] = true
		}
	}
	for claim := range failing {
		if fig7ExpectedFail[claim] == "" {
			t.Errorf("a claim fails that is not on the expected-fail list: %s", claim)
		}
	}
	for claim, reason := range fig7ExpectedFail {
		if !failing[claim] {
			t.Errorf("expected to fail, and does not (delete the entry if this is an improvement): %s (listed because: %s)", claim, reason)
		}
	}
}
