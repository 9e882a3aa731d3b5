package main

import (
	"strings"
	"testing"
	"time"

	"poise/internal/fleet"
)

// TestValidateFleetFlags: every inconsistent -serve/-worker flag
// combination must fail fast with a message naming the offending flag,
// and the legitimate combinations must pass.
func TestValidateFleetFlags(t *testing.T) {
	serve := func(mut func(*fleetFlags)) fleetFlags {
		f := fleetFlags{Flags: fleet.Flags{Serve: ":0"}, cacheDir: "profs"}
		if mut != nil {
			mut(&f)
		}
		return f
	}
	worker := func(mut func(*fleetFlags)) fleetFlags {
		f := fleetFlags{Flags: fleet.Flags{Worker: "http://host:9444"}}
		if mut != nil {
			mut(&f)
		}
		return f
	}
	cases := []struct {
		name    string
		flags   fleetFlags
		wantErr string // "" = must pass
	}{
		{"serve refinement", serve(nil), ""},
		{"serve with cache", serve(func(f *fleetFlags) { f.cacheDir = "rounds" }), ""},
		{"serve with lease knobs", serve(func(f *fleetFlags) { f.LeaseTasks = 4; f.LeaseTTL = time.Minute }), ""},
		{"plain worker", worker(nil), ""},
		{"worker with chaos hooks", worker(func(f *fleetFlags) { f.dieAfter = 3; f.taskDelay = time.Second }), ""},
		{"worker with cache", worker(func(f *fleetFlags) { f.cacheDir = "snaps"; f.dieAfter = 3 }), ""},

		{"neither serve nor worker", fleetFlags{}, "-serve or -worker"},
		{"both serve and worker", fleetFlags{Flags: fleet.Flags{Serve: ":0", Worker: "http://h"}}, "mutually exclusive"},
		{"serve with sweep", serve(func(f *fleetFlags) { f.sweep = true }), "-sweep"},
		{"worker with best", worker(func(f *fleetFlags) { f.best = true }), "-best"},
		{"serve without cache", serve(func(f *fleetFlags) { f.cacheDir = "" }), "-serve needs -cache"},
		{"serve with die-after", serve(func(f *fleetFlags) { f.dieAfter = 3 }), "worker flags"},
		{"serve with task-delay", serve(func(f *fleetFlags) { f.taskDelay = time.Second }), "worker flags"},
		{"worker with lease-tasks", worker(func(f *fleetFlags) { f.LeaseTasks = 4 }), "coordinator flags"},
		{"worker with lease-ttl", worker(func(f *fleetFlags) { f.LeaseTTL = time.Minute }), "coordinator flags"},
		{"negative lease-tasks", serve(func(f *fleetFlags) { f.LeaseTasks = -1 }), "-lease-tasks"},
		{"negative lease-ttl", serve(func(f *fleetFlags) { f.LeaseTTL = -time.Second }), "-lease-ttl"},
		{"negative die-after", worker(func(f *fleetFlags) { f.dieAfter = -1 }), "-die-after"},
		{"negative task-delay", worker(func(f *fleetFlags) { f.taskDelay = -time.Second }), "-task-delay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFleetFlags(tc.flags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFleetFlags(%+v) = %v, want nil", tc.flags, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFleetFlags(%+v) = nil, want error containing %q", tc.flags, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFleetFlags(%+v) = %q, want it to contain %q", tc.flags, err, tc.wantErr)
			}
		})
	}
}
