package main

import (
	"strings"
	"testing"
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
		{"valid sweep", sweepModeArgs{sweep: true, profileDir: "d"}, ""},
		{"valid best", sweepModeArgs{best: true, profileDir: "d"}, ""},

		{"sweep without profile-out", sweepModeArgs{sweep: true}, "-sweep needs -profile-out"},
		{"best without profile-out", sweepModeArgs{best: true}, "-best needs -profile-out"},
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
