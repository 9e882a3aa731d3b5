package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// fingerprint identifies the machine and build a results file came
// from. Host times from different fingerprints do not compare.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The go tool stamps the commit when it builds inside a git
	// checkout; the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+dirty"
				}
			}
		}
	}
	return fp
}

// benchmarkJSON is the part of BENCHMARK.json -agree needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeFiles compares results file b against a with the bounds of
// BENCHMARK.json: one row per (workload, end-to-end metric), and every
// exact count must be equal when the seeds are. It returns the process
// exit code.
func agreeFiles(benchPath, aPath, bPath string) int {
	var bj benchmarkJSON
	var a, b resultsFile
	for _, in := range []struct {
		path string
		v    any
	}{{benchPath, &bj}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if a.Fingerprint != b.Fingerprint {
		fmt.Printf("WARNING: machine fingerprints differ; host times below do not compare\n  a: %+v\n  b: %+v\n",
			a.Fingerprint, b.Fingerprint)
	}
	bReports := map[string]*report{}
	for _, r := range b.Reports {
		bReports[r.Workload] = r
	}
	bad := 0
	fmt.Printf("%-16s %-22s %12s %12s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, ra := range a.Reports {
		rb := bReports[ra.Workload]
		if rb == nil {
			fmt.Printf("%-16s missing from %s\n", ra.Workload, bPath)
			bad++
			continue
		}
		for _, m := range bj.EndToEnd {
			da, oka := ra.EndToEnd[m.Name]
			db, okb := rb.EndToEnd[m.Name]
			if !oka || !okb {
				fmt.Printf("%-16s %-22s missing\n", ra.Workload, m.Name)
				bad++
				continue
			}
			// worse > 0 means b is worse than a by that share of a.
			worse := (db.Value - da.Value) / da.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			switch {
			case da.spread() > m.Bound || db.spread() > m.Bound:
				verdict = "unresolved (pass-to-pass spread exceeds the bound)"
			case worse > m.Bound:
				verdict = "OUTSIDE"
				bad++
			}
			fmt.Printf("%-16s %-22s %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n",
				ra.Workload, m.Name, da.Value, db.Value, 100*(db.Value-da.Value)/da.Value, 100*m.Bound, verdict)
		}
		if ra.Seed != rb.Seed {
			fmt.Printf("%-16s seeds differ (%d, %d): exact rows not compared\n", ra.Workload, ra.Seed, rb.Seed)
			continue
		}
		equal := 0
		for _, k := range slices.Sorted(maps.Keys(ra.Exact)) {
			vb, ok := rb.Exact[k]
			if !ok || vb != ra.Exact[k] {
				fmt.Printf("%-16s %-22s exact row differs: %v vs %v\n", ra.Workload, k, ra.Exact[k], vb)
				bad++
				continue
			}
			equal++
		}
		fmt.Printf("%-16s %d exact rows equal\n", ra.Workload, equal)
	}
	if bad > 0 {
		fmt.Printf("%d rows outside their bound, unequal or missing\n", bad)
		return 1
	}
	return 0
}
