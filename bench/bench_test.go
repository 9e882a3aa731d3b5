package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"poise/internal/config"
	"poise/internal/fleet"
	"poise/internal/poise"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// fromSpec renders the tables of spec.go in BENCHMARK.json's shape.
func fromSpec() benchmarkFile {
	f := benchmarkFile{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 15,
	}
	for _, w := range workloadSpecs {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{m.Name, m.Unit, m.Better, nil})
	}
	return f
}

// TestBenchmarkJSONMatchesSpec keeps the root BENCHMARK.json and the
// tables the program reports from in step. On a mismatch the log holds
// the file the tables would generate.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	var got benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &got); err != nil {
		t.Fatal(err)
	}
	want := fromSpec()
	if !reflect.DeepEqual(got, want) {
		data, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from spec.go; spec.go generates:\n%s", data)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]benchmarkMetric(nil), got.EndToEnd...), got.PerLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v", m.Name, *m.Bound)
		}
	}
}

// TestSmokeEveryWorkload drives every workload's traced run at a tiny
// scale (one application, one pass each way) and checks the shape of
// what comes out: the emitted names are exactly the declared ones,
// every metric carries a unit, spans nest and the trace file parses.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			out := t.TempDir()
			rep := runWorkload(spec, options{seed: 1, tiny: true, trace: true, outDir: out})
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			for _, tc := range []struct {
				specs []metricSpec
				got   map[string]dist
			}{{endToEnd, rep.EndToEnd}, {perLayer, rep.PerLayer}} {
				if len(tc.got) != len(tc.specs) {
					t.Errorf("%d metrics emitted, %d declared", len(tc.got), len(tc.specs))
				}
				for _, m := range tc.specs {
					d, ok := tc.got[m.Name]
					if !ok {
						t.Errorf("%s not emitted", m.Name)
					} else if d.Unit != m.Unit {
						t.Errorf("%s: unit %q, declared %q", m.Name, d.Unit, m.Unit)
					}
				}
			}
			for _, name := range []string{"wall_s", "cpu_s", "ns_per_simcycle", "minstr_per_s", "setup_s", "poise_speedup_hmean"} {
				if rep.EndToEnd[name].Value <= 0 {
					t.Errorf("%s = %v", name, rep.EndToEnd[name].Value)
				}
			}
			line := rep.line()
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced driver line carries %d metrics, want the %d per-layer ones", len(line.Metrics), len(perLayer))
			}

			var tf traceFile
			if err := readJSON(rep.Trace, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.TraceEvents) == 0 {
				t.Fatal("trace file holds no events")
			}
			// Spans nest: a child lies inside its parent, and no span's
			// self time is negative.
			byID := map[int]traceEvent{}
			for _, ev := range tf.TraceEvents {
				byID[int(ev.Args["id"].(float64))] = ev
			}
			const slack = 1e-3 // microseconds; ts and dur are rounded separately
			for _, ev := range tf.TraceEvents {
				if ev.Args["self_us"].(float64) < 0 {
					t.Errorf("span %s has negative self time", ev.Name)
				}
				pid := int(ev.Args["parent"].(float64))
				if pid < 0 {
					continue
				}
				p, ok := byID[pid]
				if !ok {
					t.Errorf("span %s has no parent %d in the file", ev.Name, pid)
				} else if ev.Ts < p.Ts-slack || ev.Ts+ev.Dur > p.Ts+p.Dur+slack {
					t.Errorf("span %s [%v,+%v] lies outside its parent %s [%v,+%v]", ev.Name, ev.Ts, ev.Dur, p.Name, p.Ts, p.Dur)
				}
			}
		})
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	spans := []spanRec{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Lane: 1, Start: 30, End: 60}, // overlaps a on another lane
		{ID: 3, Parent: 0, Name: "c", Start: 80, End: 90},
		{ID: 4, Parent: 1, Name: "a.child", Start: 10, End: 40},
	}
	want := []int64{100 - 50 - 10, 0, 30, 10, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestAgreeVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"wall_s","unit":"s","better":"lower","bound":0.1},
		{"name":"minstr_per_s","unit":"Minstr/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	file := func(name string, wall, mips, cycles float64) string {
		rf := resultsFile{Reports: []*report{{
			Workload: "w", Correct: true,
			EndToEnd: map[string]dist{"wall_s": exact("s", wall), "minstr_per_s": exact("Minstr/s", mips)},
			Exact:    map[string]float64{"sim.cycles": cycles},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", 1.0, 10, 1000)
	for _, tc := range []struct {
		name              string
		wall, mips, cycle float64
		code              int
	}{
		{"same", 1.0, 10, 1000, 0},
		{"within", 1.05, 9.5, 1000, 0},
		{"better", 0.5, 20, 1000, 0},
		{"slower", 1.2, 10, 1000, 1},
		{"less-throughput", 1.0, 8, 1000, 1},
		{"exact-row-moved", 1.0, 10, 1001, 1},
	} {
		if got := agreeFiles(bench, base, file(tc.name+".json", tc.wall, tc.mips, tc.cycle)); got != tc.code {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.code)
		}
	}
}

// A request left behind by a worker of an earlier campaign must not
// reach the coordinator of the current one: it would be granted a lease
// nobody runs.
func TestFleetRefusesStaleCampaignRequests(t *testing.T) {
	weights, ok := poise.DefaultWeights()
	if !ok {
		t.Fatal("no embedded Poise weights")
	}
	spec, _ := findWorkload("fleet_loopback")
	w := spec.New().(*fleetWorkload)
	e := &env{seed: 1, tiny: true, tmp: t.TempDir(), weights: weights, params: config.DefaultPoise(), yard: newYardstick(spec.Workers)}
	if err := w.setup(e); err != nil { // serves the warm-up campaign under /c1
		t.Fatal(err)
	}
	defer w.teardown()
	coord, err := fleet.NewCoordinator(fleet.ProfileCampaign{Plan: w.plan}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.mounted.Store(&mount{"/c2", http.StripPrefix("/c2", coord.Handler())})
	for path, want := range map[string]int{"/c1/v1/plan": http.StatusGone, "/c2/v1/plan": http.StatusOK} {
		resp, err := http.Get("http://" + w.ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	if st := coord.Stats(); st.Granted != 0 {
		t.Errorf("the stale request was granted %d leases", st.Granted)
	}
}
