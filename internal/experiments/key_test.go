package experiments

import (
	"testing"

	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

// recordedII is a recorded trace named like the catalogue's ii, whose
// one kernel ii#0 sweeps region: a trace that shadows ii, its content
// set by region.
func recordedII(t *testing.T, region int) *sim.Workload {
	t.Helper()
	b := &trace.BodyBuilder{}
	b.Load(1)
	b.ALU(2)
	tr, err := traceio.Record(&sim.Workload{Name: "ii", Kernels: []*trace.Kernel{{
		Name:          "ii#0",
		Body:          b.Body(),
		Patterns:      []trace.Pattern{trace.PrivateSweep{Region: region, Lines: 20, Step: 1}},
		Iters:         40,
		WarpsPerBlock: 4,
		Blocks:        4,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tr.Workload()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestProfileKey: the profile store names an entry by everything that
// changes the profile — the configuration (SMs, L1), the grid steps,
// refined or whole grid, and the kernel's content (size, catalogue
// seed, a trace shadowing the kernel and that trace's streams) — and
// by nothing else: not the worker count, not the run memo, not an
// extra workload that is not the kernel's. The key is profile.Key, the
// one the harness's sweeps reach the store through.
func TestProfileKey(t *testing.T) {
	base := Options{SMs: 2, EvalStepN: 4, EvalStepP: 4}
	// key is the evaluation-sweep entry of ii#0 under o, after edit has
	// had its say on the configuration and the options.
	key := func(o Options, edit func(h *Harness, opts *profile.SweepOptions)) string {
		h := NewHarness(o)
		opts := h.sweepOptions(false)
		if edit != nil {
			edit(h, &opts)
		}
		return profile.Key(h.Cfg, h.Cat.Must("ii").Kernels[0], opts)
	}
	with := func(edit func(*Options)) Options {
		o := base
		edit(&o)
		return o
	}
	ref := key(base, nil)

	moves := map[string]string{
		"SMs":   key(with(func(o *Options) { o.SMs = 4 }), nil),
		"L1":    key(base, func(h *Harness, _ *profile.SweepOptions) { h.Cfg.L1.SizeBytes *= 2 }),
		"StepN": key(with(func(o *Options) { o.EvalStepN = 2 }), nil),
		"StepP": key(with(func(o *Options) { o.EvalStepP = 2 }), nil),
		"whole grid": key(base, func(_ *Harness, opts *profile.SweepOptions) {
			opts.Refine = false
		}),
		"size": key(with(func(o *Options) { o.Size = workloads.Medium }), nil),
		"seed": key(with(func(o *Options) { o.Seed = 5 }), nil),
		"shadowing trace": key(with(func(o *Options) {
			o.ExtraWorkloads = []*sim.Workload{recordedII(t, 77)}
		}), nil),
	}
	seen := map[string]string{ref: "the reference"}
	for what, k := range moves {
		if other, ok := seen[k]; ok {
			t.Errorf("%s does not move the key: %s names %s too", what, k, other)
		}
		seen[k] = what
	}
	reRecorded := key(with(func(o *Options) { o.ExtraWorkloads = []*sim.Workload{recordedII(t, 78)} }), nil)
	if reRecorded == moves["shadowing trace"] {
		t.Error("a trace re-recorded with other streams under the same name keeps the key")
	}

	stays := map[string]string{
		"Workers": key(with(func(o *Options) { o.Workers = 3 }), nil),
		"Memo": key(base, func(_ *Harness, opts *profile.SweepOptions) {
			opts.Memo = sim.NewRunMemo()
		}),
		"an unrelated extra workload": key(with(func(o *Options) {
			w := recordedII(t, 77)
			w.Name, w.Kernels[0].Name = "ingested", "ingested#0"
			o.ExtraWorkloads = []*sim.Workload{w}
		}), nil),
	}
	for what, k := range stays {
		if k != ref {
			t.Errorf("%s moves the key: %s, want %s", what, k, ref)
		}
	}
}
