package main

import (
	"strings"
	"testing"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/profile"
	"poise/internal/workloads"
)

// TestValidateSweepFlags: every under-specified -sweep/-best invocation
// must fail fast with a message naming the missing flag, before any
// file is read or task simulated.
func TestValidateSweepFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    sweepModeArgs
		wantErr string // "" = must pass
	}{
		{"valid sweep", sweepModeArgs{sweep: true, cache: "d"}, ""},
		{"valid best", sweepModeArgs{best: true, cache: "d"}, ""},

		{"sweep without cache", sweepModeArgs{sweep: true}, "-sweep needs -cache"},
		{"best without cache", sweepModeArgs{best: true}, "-best needs -cache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateSweepFlags(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateSweepFlags = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateSweepFlags = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateSweepFlags = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSweepKeysTheHarnessEntry: `poisesim -sweep` and the experiment
// harness's evaluation sweep of one kernel at one configuration name
// the same profile-store entry, so either warms the other's cache.
func TestSweepKeysTheHarnessEntry(t *testing.T) {
	h := experiments.NewHarness(experiments.Options{SMs: 2, EvalStepN: 4, EvalStepP: 4, Workers: 1})
	a := sweepModeArgs{cfg: config.Default().Scale(2), stepN: 4, stepP: 4, workers: 2}
	k := workloads.NewCatalogueSeeded(workloads.Small, 0).Must("ii").Kernels[0]
	got := profile.Key(a.cfg, k, a.sweepOptions())
	if want := profile.Key(h.Cfg, h.Cat.Must("ii").Kernels[0], h.EvalSweepOptions()); got != want {
		t.Fatalf("poisesim -sweep keys ii#0 as %s, the harness as %s", got, want)
	}
}
