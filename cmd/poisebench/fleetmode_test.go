package main

import (
	"strings"
	"testing"
	"time"

	"poise/internal/fleet"
)

// TestValidateBenchFleetFlags: the -serve/-worker combination rules —
// bad -run selections (gridOfRun) and missing -cache must all fail fast
// with a message naming the offending flag.
func TestValidateBenchFleetFlags(t *testing.T) {
	serve := func(mut func(*benchFleetFlags)) benchFleetFlags {
		f := benchFleetFlags{Flags: fleet.Flags{Serve: ":0"}, run: "all", cacheDir: "c"}
		if mut != nil {
			mut(&f)
		}
		return f
	}
	worker := func(mut func(*benchFleetFlags)) benchFleetFlags {
		f := benchFleetFlags{Flags: fleet.Flags{Worker: "http://host:9444"}, run: "all"}
		if mut != nil {
			mut(&f)
		}
		return f
	}
	cases := []struct {
		name    string
		flags   benchFleetFlags
		wantErr string // "" = must pass
	}{
		{"serve profile sweeps", serve(nil), ""},
		{"serve one grid experiment", serve(func(f *benchFleetFlags) { f.run = "fig7" }), ""},
		{"serve grid experiment, mixed case", serve(func(f *benchFleetFlags) { f.run = " Fig16 " }), ""},
		{"serve with lease knobs", serve(func(f *benchFleetFlags) { f.LeaseTasks = 4; f.LeaseTTL = time.Minute }), ""},
		{"plain worker", worker(nil), ""},
		{"worker ignores run", worker(func(f *benchFleetFlags) { f.run = "fig4" }), ""},

		{"neither serve nor worker", benchFleetFlags{run: "all"}, "-serve or -worker"},
		{"both serve and worker", benchFleetFlags{Flags: fleet.Flags{Serve: ":0", Worker: "http://h"}, run: "all", cacheDir: "c"}, "mutually exclusive"},
		{"serve without cache", serve(func(f *benchFleetFlags) { f.cacheDir = "" }), "-cache"},
		{"serve with experiment list", serve(func(f *benchFleetFlags) { f.run = "fig7,fig11" }), "single experiment"},
		{"serve with non-grid experiment", serve(func(f *benchFleetFlags) { f.run = "fig4" }), "not grid-backed"},
		{"serve with unknown experiment", serve(func(f *benchFleetFlags) { f.run = "fig99" }), "not grid-backed"},
		{"worker with lease-tasks", worker(func(f *benchFleetFlags) { f.LeaseTasks = 4 }), "coordinator flags"},
		{"worker with lease-ttl", worker(func(f *benchFleetFlags) { f.LeaseTTL = time.Minute }), "coordinator flags"},
		{"negative lease-tasks", serve(func(f *benchFleetFlags) { f.LeaseTasks = -1 }), "-lease-tasks"},
		{"negative lease-ttl", serve(func(f *benchFleetFlags) { f.LeaseTTL = -time.Second }), "-lease-ttl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateBenchFleetFlags(tc.flags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateBenchFleetFlags(%+v) = %v, want nil", tc.flags, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateBenchFleetFlags(%+v) = nil, want error containing %q", tc.flags, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateBenchFleetFlags(%+v) = %q, want it to contain %q", tc.flags, err, tc.wantErr)
			}
		})
	}
}
