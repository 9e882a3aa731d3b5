package main

import (
	"flag"
	"os/exec"
	"strings"
	"testing"
)

// flagBudget is how many flags poisesim has. The number may only fall:
// every flag is a configuration somebody has to test, and the ROADMAP's
// design-quality aim counts them (36 once; 30 after the static shards,
// -seeds and -resume went; 28 after the whole-grid plan mode's two
// flags went). A change that needs a new flag has to retire one, or
// argue the budget up in review.
const flagBudget = 28

func TestFlagBudget(t *testing.T) {
	n := 0
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			n++
		}
	})
	if n > flagBudget {
		t.Fatalf("poisesim has %d flags, over its budget of %d: the count may only fall (see flagBudget)", n, flagBudget)
	}
	if n < flagBudget {
		t.Fatalf("poisesim is down to %d flags: lower flagBudget (%d) to keep them off", n, flagBudget)
	}
}

// TestNoHarnessInPoisesim: poisesim serves and works sweep campaigns
// only. Cell campaigns need the experiment harness and the results
// store, which are poisebench's; importing either here means a second
// command has started doubling as a poisebench worker again. The check
// is on what this package imports, not on `go list -deps`: package fleet
// carries both kinds' executors (fleet.CellExecutor holds a harness and
// returns results.CellResult), and the facade package poise re-exports
// the harness, so both stay linked through them.
func TestNoHarnessInPoisesim(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, ".").Output()
	if err != nil {
		t.Skipf("go list: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "poise/internal/experiments" || dep == "poise/internal/results" {
			t.Errorf("poisesim imports %s", dep)
		}
	}
}

// TestValidateFlags: -sms takes 1 to the baseline's 32 SMs (config.Scale
// ran anything else as the 32-SM baseline), and -ckpt-at-cycle needs a
// snapshot directory, both refused before anything runs.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		sms     int
		ckptAt  int64
		snapDir string
		wantErr string // "" = valid
	}{
		{"default", 8, 0, "", ""},
		{"one-sm", 1, 0, "", ""},
		{"baseline", 32, 0, "", ""},
		{"zero-sms", 0, 0, "", "-sms"},
		{"negative-sms", -3, 0, "", "-sms"},
		{"above-baseline", 33, 0, "", "-sms"},
		{"checkpoint", 2, 500, "snaps", ""},
		{"checkpoint-nowhere", 2, 500, "", "-snapshot-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.sms, tc.ckptAt, tc.snapDir)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.wantErr)
			}
		})
	}
}
