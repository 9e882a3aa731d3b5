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
}

// TestShadowingTraceStaysOutOfEvalSet: a trace that shadows a training
// or compute workload replaces it in the catalogue but must not leak
// into the evaluation set (which would silently change every eval
// table); it must, however, move the trained model's fingerprint.
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
	if h.trainTag() == base.trainTag() {
		t.Fatal("shadowing a training workload must change the training set's fingerprint")
	}
}
