package main

import (
	"flag"
	"strings"
	"testing"
)

// flagBudget is how many flags poisebench has. The number may only
// fall: every flag is a configuration somebody has to test, and the
// ROADMAP's design-quality aim counts them (20 once; 15 since
// -snapshot-dir went with the run memo's on-disk tier). A change that
// needs a new flag has to retire one, or argue the budget up in review.
const flagBudget = 15

func TestFlagBudget(t *testing.T) {
	n := 0
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			n++
		}
	})
	if n > flagBudget {
		t.Fatalf("poisebench has %d flags, over its budget of %d: the count may only fall (see flagBudget)", n, flagBudget)
	}
	if n < flagBudget {
		t.Fatalf("poisebench is down to %d flags: lower flagBudget (%d) to keep them off", n, flagBudget)
	}
}

// TestValidateFlags: -sms takes 1 to the baseline's 32 SMs; the harness
// turned 0 and below into 8 and config.Scale ran 33 and above as 32.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		sms int
		ok  bool
	}{{8, true}, {1, true}, {32, true}, {0, false}, {-3, false}, {33, false}} {
		err := validateFlags(tc.sms)
		if (err == nil) != tc.ok || (err != nil && !strings.Contains(err.Error(), "-sms")) {
			t.Errorf("-sms %d: got %v, want ok=%v", tc.sms, err, tc.ok)
		}
	}
}
