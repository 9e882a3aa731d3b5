// Command bench is the repository's benchmark: five workloads over the
// simulator and the layers around it, nine end-to-end metrics, a
// per-layer ledger and a traced run. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh                          every workload, one after another
//	bash bench/run.sh -workload sim_compute    one workload
//	bash bench/run.sh -trace 1                 the traced run: per-layer table + trace file
//	bash bench/run.sh -agree a.json b.json     compare two results files
//
// All measuring is done from outside the layers: timing public calls,
// reading the counters results already expose, and standalone probes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"poise/internal/config"
	"poise/internal/poise"
)

// options are the knobs of one invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	outDir  string
}

const (
	setupReps = 5 // set-ups per run; setup_s is the median
	minPasses = 3 // timed passes per run, whatever -seconds says
)

// report is what one workload's run produced.
type report struct {
	Workload     string          `json:"workload"`
	Seed         int64           `json:"seed"`
	Traced       bool            `json:"traced"`
	Correct      bool            `json:"correct"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	Passes       int             `json:"passes"`
	TracedPasses int             `json:"traced_passes"`
	EndToEnd     map[string]dist `json:"end_to_end"`
	// Host is what the box did during the run: the yardstick's slowdown
	// pass by pass and the host times as measured, before calibration.
	Host map[string]dist `json:"host"`
	// Exact holds the counts that must be equal between two runs of the
	// same seed, whatever the machine.
	Exact    map[string]float64 `json:"exact"`
	PerLayer map[string]dist    `json:"per_layer,omitempty"`
	Spans    []layerRow         `json:"spans,omitempty"`
	Trace    string             `json:"trace_file,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// flowReporter is implemented by the workloads whose flow reaches the
// layers behind the "flow" per-layer rows (profile, experiments,
// fleet); they derive those rows from the cost of their units.
type flowReporter interface {
	flowMetrics(cost costOf, exact map[string]float64) map[string]float64
}

// timedPass is one pass: what it produced, what it allocated, the host
// time of each of its units and the slowdown of the reference work that
// ran between them.
type timedPass struct {
	out      passOut
	allocMB  float64
	units    []unitTime
	slowdown float64
}

// passes runs timed passes for about budget seconds (at least floor of
// them) and checks every pass against ref, the first pass of the run.
func passes(e *env, w workload, budget float64, floor int, rep *report, ref *passOut) []timedPass {
	var done []timedPass
	start := time.Now()
	var last float64
	for n := 0; ; n++ {
		if n >= floor && time.Since(start).Seconds()+last/2 > budget {
			break
		}
		e.tr.setPass(n)
		ps := e.tr.begin(span{}, "bench.pass")
		e.cur, e.units = ps, nil
		e.yard.take()
		t0 := time.Now()
		var out passOut
		mb, err := allocMB(func() (err error) {
			out, err = w.pass(e)
			return err
		})
		e.yard.atLeast(yardMinSlices)
		slow := e.yard.take()
		last = time.Since(t0).Seconds()
		ps.end()
		e.cur = span{}
		e.tr.setPass(-1)
		rep.Attempted += out.Ops
		rep.Failed += out.Failed
		if err != nil {
			if out.Failed == 0 {
				rep.Failed++
			}
			rep.fail("pass %d: %v", n, err)
			break
		}
		if ref.Kernels == nil {
			*ref = out
		} else if !reflect.DeepEqual(ref.comparable(), out.comparable()) {
			rep.Failed += out.Ops
			rep.fail("pass %d: results differ from the first pass", n)
			break
		}
		done = append(done, timedPass{out, mb, e.units, slow})
	}
	return done
}

// runWorkload runs one workload end to end and returns its report.
func runWorkload(spec workloadSpec, opts options) *report {
	rep := &report{
		Workload: spec.Name, Seed: opts.seed, Traced: opts.trace, Correct: true,
		EndToEnd: map[string]dist{}, Exact: map[string]float64{},
	}
	weights, ok := poise.DefaultWeights()
	if !ok {
		rep.fail("no embedded Poise weights")
		return rep
	}
	tmp, err := os.MkdirTemp(opts.outDir, "tmp-"+spec.Name+"-")
	if err != nil {
		rep.fail("scratch directory: %v", err)
		return rep
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: opts.seed, tiny: opts.tiny, tmp: tmp, weights: weights, params: config.DefaultPoise(), yard: newYardstick(spec.Workers)}
	if opts.trace {
		e.tr = newTracer(spec.Name)
	}
	w := spec.New()
	defer w.teardown()

	// Set-up, several times: each repetition rebuilds everything from
	// the seed; setup_s is the median, calibrated like the pass metrics.
	reps := setupReps
	if opts.tiny {
		reps = 1
	}
	var setupS, setupRaw []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		sp := e.tr.begin(span{}, "bench.setup")
		e.cur = sp
		var err error
		raw, cal := e.calibrated(func() { err = w.setup(e) })
		setupS, setupRaw = append(setupS, cal), append(setupRaw, raw)
		sp.end()
		e.cur = span{}
		if err != nil {
			rep.Attempted, rep.Failed = 1, 1
			rep.fail("set-up: %v", err)
			return rep
		}
	}

	// Timed passes, untraced. The traced run splits -seconds between an
	// untraced half (its baseline) and a traced half.
	budget, floor := opts.seconds, minPasses
	if opts.trace {
		budget, floor = opts.seconds/2, 2
	}
	if opts.tiny {
		budget, floor = 0, 1
	}
	tr := e.tr
	e.tr = nil
	var first passOut
	done := passes(e, w, budget, floor, rep, &first)
	e.tr = tr
	rep.Passes = len(done)
	if len(done) == 0 {
		return rep
	}
	if err := w.verify(e, first); err != nil {
		rep.fail("verify: %v", err)
	}

	wall, cpu, rawWall := costs(done, "")
	cycles, instr := float64(first.cycles()), float64(first.instructions())
	perCycle, mips := make([]float64, len(done)), make([]float64, len(done))
	alloc, slow := make([]float64, len(done)), make([]float64, len(done))
	for i := range done {
		perCycle[i] = cpu[i] * 1e9 / cycles
		mips[i] = instr / wall[i] / 1e6
		alloc[i], slow[i] = done[i].allocMB, done[i].slowdown
	}
	hm, worst, er, err := first.poiseMetrics()
	if err != nil {
		rep.fail("poise metrics: %v", err)
	}
	rep.EndToEnd = map[string]dist{
		"setup_s":             summarise("s", setupS),
		"wall_s":              summarise("s", wall),
		"cpu_s":               summarise("s", cpu),
		"ns_per_simcycle":     summarise("ns/cycle", perCycle),
		"minstr_per_s":        summarise("Minstr/s", mips),
		"alloc_mb":            summarise("MB", alloc),
		"poise_speedup_hmean": exact("x", hm),
		"poise_min_speedup":   exact("x", worst),
		"poise_energy_ratio":  exact("ratio", er),
	}
	rep.Host = map[string]dist{
		"slowdown":    summarise("ratio", slow),
		"wall_raw_s":  summarise("s", rawWall),
		"setup_raw_s": summarise("s", setupRaw),
	}
	for k, v := range first.counters() {
		rep.Exact[k] = v
	}
	rep.Exact["poise_speedup_hmean"] = hm
	rep.Exact["poise_min_speedup"] = worst
	rep.Exact["poise_energy_ratio"] = er

	if opts.trace {
		traced(e, w, opts, rep, first, median(wall))
	}
	checkComplete(rep)
	return rep
}

// traced is the second half of the traced run: the same passes with
// spans recorded, then the layer probes, then the per-layer table.
func traced(e *env, w workload, opts options, rep *report, first passOut, untracedWall float64) {
	budget, floor := opts.seconds/2, 2
	if opts.tiny {
		budget, floor = 0, 1
	}
	done := passes(e, w, budget, floor, rep, &first)
	rep.TracedPasses = len(done)
	if len(done) == 0 {
		return
	}
	cost := medianCosts(done)
	wall, cpu := cost("")
	slow := make([]float64, len(done))
	for i, p := range done {
		slow[i] = p.slowdown
	}
	vals := first.counters()
	vals["trace_overhead_frac"] = wall/untracedWall - 1
	vals["host.slowdown"] = median(slow)
	vals["runner.parallel_eff"] = cpu / wall // one goroutine; flow workloads override
	if fr, ok := w.(flowReporter); ok {
		for k, v := range fr.flowMetrics(cost, vals) {
			vals[k] = v
		}
	}
	// Counts that depend on goroutine interleaving: medians across passes.
	varied := map[string][]float64{}
	for _, p := range done {
		for k, v := range p.out.Varied {
			varied[k] = append(varied[k], v)
		}
	}
	for k, xs := range varied {
		vals[k] = median(xs)
	}

	ps := e.tr.begin(span{}, "bench.probes")
	e.cur = ps
	probes, err := runProbes(e, w.probeSet())
	ps.end()
	e.cur = span{}
	if err != nil {
		rep.fail("probes: %v", err)
	}
	for k, v := range probes {
		if _, have := vals[k]; !have { // a pass's own count wins over the probe's
			vals[k] = v
		}
	}

	rep.PerLayer = map[string]dist{}
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if !ok {
			if m.Kind != kindFlow {
				continue // reported as missing by checkComplete
			}
			v = 0 // this workload's flow does not reach the layer
		}
		rep.PerLayer[m.Name] = exact(m.Unit, v)
	}

	spans := e.tr.snapshot()
	rep.Spans = layerTable(spans)
	rep.Trace = filepath.Join(opts.outDir, fmt.Sprintf("trace-%s-seed%d.json", rep.Workload, rep.Seed))
	if err := writeChromeTrace(rep.Trace, spans); err != nil {
		rep.fail("trace file: %v", err)
	}
}

// checkComplete fails the report when a named metric is missing or not
// finite.
func checkComplete(rep *report) {
	check := func(specs []metricSpec, got map[string]dist) {
		for _, m := range specs {
			d, ok := got[m.Name]
			switch {
			case !ok:
				rep.fail("metric %s is missing", m.Name)
			case math.IsNaN(d.Value) || math.IsInf(d.Value, 0):
				rep.fail("metric %s is not finite", m.Name)
			case d.Unit == "":
				rep.fail("metric %s has no unit", m.Name)
			}
		}
	}
	check(endToEnd, rep.EndToEnd)
	if rep.Traced {
		check(perLayer, rep.PerLayer)
	}
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line() driverLine {
	src := r.EndToEnd
	if r.Traced {
		src = r.PerLayer
	}
	l := driverLine{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]driverValue{}}
	for k, d := range src {
		l.Metrics[k] = driverValue{d.Value, d.Unit}
	}
	return l
}

// print writes the human-readable tables.
func (r *report) print() {
	fmt.Printf("\n== %s  seed %d  passes %d", r.Workload, r.Seed, r.Passes)
	if r.Traced {
		fmt.Printf(" untraced + %d traced", r.TracedPasses)
	}
	fmt.Printf("  operations %d attempted, %d failed  correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, m := range endToEnd {
		d, ok := r.EndToEnd[m.Name]
		if !ok {
			continue
		}
		spread := fmt.Sprintf("samples: q1 %.4g  q3 %.4g", d.Q1, d.Q3)
		if d.N < 5 {
			spread = fmt.Sprintf("samples: min %.4g  max %.4g", d.Min, d.Max)
		}
		if d.N == 1 {
			spread = "exact"
		}
		note := ""
		if p := paperValues[m.Name]; p != "" {
			note = "  (" + p + "; subset and scale differ)"
		}
		fmt.Printf("  %-22s %12.6g %-9s n=%d  %s%s\n", m.Name, d.Value, d.Unit, d.N, spread, note)
	}
	if h, ok := r.Host["slowdown"]; ok {
		fmt.Printf("  host: yardstick slowdown %.3f (passes %.3f..%.3f); as measured wall_s %.6g, setup_s %.6g\n",
			h.Value, h.Min, h.Max, r.Host["wall_raw_s"].Value, r.Host["setup_raw_s"].Value)
	}
	if r.Traced {
		fmt.Println("  -- per layer")
		for _, m := range perLayer {
			if d, ok := r.PerLayer[m.Name]; ok {
				fmt.Printf("  %-30s %14.6g %-9s %s\n", m.Name, d.Value, d.Unit, m.Kind)
			}
		}
		fmt.Println("  -- spans (self time is the span minus what its children cover)")
		for i, row := range r.Spans {
			if i == 12 {
				break
			}
			fmt.Printf("  %-44s calls %6d  total %10.2f ms  self %10.2f ms\n", row.Name, row.Calls, row.TotalMs, row.SelfMs)
		}
		fmt.Printf("  trace file: %s (open in https://ui.perfetto.dev)\n", r.Trace)
	}
	for _, e := range r.Errors {
		fmt.Printf("  ERROR: %s\n", e)
	}
}

// resultsFile is what a run writes under bench/out/ and what -agree
// reads back.
type resultsFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Reports     []*report   `json:"reports"`
}

// findRoot returns the repository root: the directory, here or one up,
// that holds BENCHMARK.json.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root or from bench/")
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all five, one after another)")
	seed := fs.Int64("seed", 0, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "how long the timed passes of one workload measure")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics, spans and a trace file")
	agree := fs.Bool("agree", false, "compare two results files: -agree a.json b.json")
	out := fs.String("out", "", "directory for results and trace files (default bench/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -agree needs two results files")
			return 2
		}
		return agreeFiles(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	specs := workloadSpecs
	if *name != "" {
		spec, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	if opts.outDir == "" {
		opts.outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// The reference box has 2 cores; never load more than that.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	file := resultsFile{Fingerprint: machineFingerprint()}
	ok := true
	for _, spec := range specs {
		runtime.GC()
		rep := runWorkload(spec, opts)
		rep.print()
		file.Reports = append(file.Reports, rep)
		ok = ok && rep.Correct && rep.Failed == 0
	}
	label := *name
	if label == "" {
		label = "all"
	}
	path := filepath.Join(opts.outDir, fmt.Sprintf("results-%s-seed%d-trace%d.json", label, *seed, *trace))
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresults file: %s\n", path)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a workload was incorrect or lost operations")
		return 1
	}
	// The contract's last line: one JSON object per invocation. With all
	// five workloads it carries the last one; drivers pass -workload.
	last, err := json.Marshal(file.Reports[len(file.Reports)-1].line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
