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
