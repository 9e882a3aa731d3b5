package experiments

import (
	"testing"

	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/traceio"
)

// TestTraceBackedWorkloadThroughProfileSweep is the ingestion
// acceptance path: a recorded trace registers via ExtraWorkloads, is
// appended to the evaluation set, and runs through the offline {N, p}
// profile sweep exactly like a synthetic workload.
func TestTraceBackedWorkloadThroughProfileSweep(t *testing.T) {
	b := &trace.BodyBuilder{}
	b.Load(1)
	b.ALU(2)
	src := &sim.Workload{Name: "ingested", Kernels: []*trace.Kernel{{
		Name:          "ingested#0",
		Body:          b.Body(),
		Patterns:      []trace.Pattern{trace.PrivateSweep{Region: 77, Lines: 20, Step: 1}},
		Iters:         40,
		WarpsPerBlock: 4,
		Blocks:        4,
	}}}
	tr, err := traceio.Record(src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tr.Workload()
	if err != nil {
		t.Fatal(err)
	}

	h := NewHarness(Options{
		SMs: 1, EvalStepN: 8, EvalStepP: 8,
		ExtraWorkloads: []*sim.Workload{w},
	})
	found := false
	for _, ew := range h.EvalWorkloads() {
		if ew.Name == "ingested" {
			found = true
		}
	}
	if !found {
		t.Fatal("trace-backed workload missing from the evaluation set")
	}

	prs, err := h.WorkloadProfiles([]*sim.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := prs["ingested#0"]
	if !ok || len(pr.Points) == 0 {
		t.Fatalf("no profile for the ingested kernel: %+v", prs)
	}
	if pr.Baseline.IPC <= 0 || pr.Best().Speedup <= 0 {
		t.Fatalf("degenerate profile: baseline %+v best %+v", pr.Baseline, pr.Best())
	}

	// The ingested kernel gets its own profile-cache key, so a
	// shadowing trace can never be served a stale synthetic sweep...
	plain := NewHarness(Options{SMs: 1, EvalStepN: 8, EvalStepP: 8})
	if h.ProfileTag("ingested#0") == plain.tag(false) {
		t.Fatal("extra kernels must perturb their profile cache key")
	}
	// ...while synthetic kernels keep their warm cache entries.
	if h.ProfileTag("syr2k#0") != plain.ProfileTag("syr2k#0") {
		t.Fatal("ingesting a trace must not invalidate synthetic sweeps")
	}

	// The key must track trace *content*: a re-recorded trace with the
	// same name, kernel count and geometry but different address
	// streams (e.g. a different -seed) must miss the cache.
	src.Kernels[0].Patterns[0] = trace.PrivateSweep{Region: 78, Lines: 20, Step: 1}
	tr2, err := traceio.Record(src)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := tr2.Workload()
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewHarness(Options{
		SMs: 1, EvalStepN: 8, EvalStepP: 8,
		ExtraWorkloads: []*sim.Workload{w2},
	})
	if h.ProfileTag("ingested#0") == h2.ProfileTag("ingested#0") {
		t.Fatal("re-recorded streams must change the profile cache key")
	}
}

// TestShadowingTraceStaysOutOfEvalSet: a trace that shadows a training
// or compute workload replaces it in the catalogue but must not leak
// into the evaluation set (which would silently change every eval
// table); it must, however, move the training sweep tag.
func TestShadowingTraceStaysOutOfEvalSet(t *testing.T) {
	base := NewHarness(Options{SMs: 1})
	gco := base.Cat.Must("gco")
	tr, err := traceio.Record(&sim.Workload{Name: "gco", Kernels: gco.Kernels[:1]})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tr.Workload()
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(Options{SMs: 1, ExtraWorkloads: []*sim.Workload{w}})
	for _, ew := range h.EvalWorkloads() {
		if ew.Name == "gco" {
			t.Fatal("shadowed training workload leaked into the evaluation set")
		}
	}
	if got := h.Cat.Must("gco"); got != w {
		t.Fatal("shadowing trace must replace the catalogue entry")
	}
	if h.tag(true) == base.tag(true) {
		t.Fatal("shadowing a training workload must change the training sweep tag")
	}
	// The shared eval tag stays stable — extra kernels are keyed per
	// kernel — so the synthetic catalogue's cached sweeps survive.
	if h.tag(false) != base.tag(false) {
		t.Fatal("eval tag must not move when only per-kernel keys change")
	}
}
