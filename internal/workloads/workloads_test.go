package workloads

import (
	"testing"

	"poise/internal/trace"
)

func TestCatalogueComplete(t *testing.T) {
	cat := NewCatalogue(Small)
	want := len(TrainingNames()) + len(EvalNames()) + len(ComputeNames()) + 1 // +cfd
	if got := len(cat.Names()); got != want {
		t.Fatalf("catalogue has %d workloads, want %d: %v", got, want, cat.Names())
	}
	for _, n := range cat.Names() {
		w := cat.Must(n)
		if err := w.Validate(); err != nil {
			t.Fatalf("workload %s invalid: %v", n, err)
		}
	}
	if _, err := cat.Get("nope"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestTrainingEvalDisjoint(t *testing.T) {
	train := map[string]bool{}
	for _, n := range TrainingNames() {
		train[n] = true
	}
	for _, n := range EvalNames() {
		if train[n] {
			t.Fatalf("%s appears in both training and evaluation sets", n)
		}
	}
	for _, n := range ComputeNames() {
		if train[n] {
			t.Fatalf("%s appears in both training and compute sets", n)
		}
	}
}

func TestSetAccessors(t *testing.T) {
	cat := NewCatalogue(Small)
	if got := len(cat.TrainingSet()); got != 3 {
		t.Fatalf("training set = %d workloads", got)
	}
	if got := len(cat.EvalSet()); got != 11 {
		t.Fatalf("eval set = %d workloads", got)
	}
	if got := len(cat.ComputeSet()); got != 7 {
		t.Fatalf("compute set = %d workloads", got)
	}
}

func TestMemorySensitivityFlags(t *testing.T) {
	cat := NewCatalogue(Small)
	for _, n := range EvalNames() {
		if !cat.Must(n).MemorySensitive {
			t.Fatalf("%s must be flagged memory-sensitive", n)
		}
	}
	for _, n := range ComputeNames() {
		if cat.Must(n).MemorySensitive {
			t.Fatalf("%s must not be flagged memory-sensitive", n)
		}
	}
}

func TestComputeSetHasHighIn(t *testing.T) {
	// The Fig. 16 workloads must trip the In > Imax = 49 detector.
	cat := NewCatalogue(Small)
	for _, w := range cat.ComputeSet() {
		for _, k := range w.Kernels {
			if k.In() <= 49 {
				t.Fatalf("%s kernel %s has In = %.1f, needs > 49", w.Name, k.Name, k.In())
			}
		}
	}
	// And the memory-sensitive ones must not.
	for _, w := range cat.EvalSet() {
		for _, k := range w.Kernels {
			if k.In() > 49 {
				t.Fatalf("%s kernel %s has In = %.1f, must be <= 49", w.Name, k.Name, k.In())
			}
		}
	}
}

func TestKernelCountsMirrorPaperShape(t *testing.T) {
	// Multi-kernel applications (paper: ii 118, mm 23, ss 164 kernels)
	// are represented by multi-kernel families here.
	cat := NewCatalogue(Small)
	multi := []string{"ii", "mm", "ss", "pvr", "gco", "ccl", "bfs"}
	for _, n := range multi {
		if len(cat.Must(n).Kernels) < 2 {
			t.Fatalf("%s should have multiple kernels", n)
		}
	}
	mono := []string{"syr2k", "syrk", "gsmv", "mvt", "bicg", "atax"}
	for _, n := range mono {
		if len(cat.Must(n).Kernels) != 1 {
			t.Fatalf("%s should be monolithic", n)
		}
	}
}

func TestSizesScaleIterations(t *testing.T) {
	small := NewCatalogue(Small).Must("ii").Kernels[0].Iters
	medium := NewCatalogue(Medium).Must("ii").Kernels[0].Iters
	large := NewCatalogue(Large).Must("ii").Kernels[0].Iters
	if !(small < medium && medium < large) {
		t.Fatalf("sizes must scale: %d %d %d", small, medium, large)
	}
}

func TestCatalogueDeterministic(t *testing.T) {
	a := NewCatalogue(Small).Must("syr2k").Kernels[0]
	b := NewCatalogue(Small).Must("syr2k").Kernels[0]
	ctx := trace.Ctx{GlobalWarp: 3}
	for s := 0; s < 50; s++ {
		for slot := range a.Patterns {
			if a.Patterns[slot].Addr(ctx, s) != b.Patterns[slot].Addr(ctx, s) {
				t.Fatal("catalogue rebuild changed address streams")
			}
		}
	}
}

func TestRegionStability(t *testing.T) {
	if region("ii", 0) != region("ii", 0) {
		t.Fatal("region must be stable")
	}
	if region("ii", 0) == region("ii", 1) || region("ii", 0) == region("mm", 0) {
		t.Fatal("regions must differ across slots and names")
	}
}

func TestParseSize(t *testing.T) {
	for in, want := range map[string]Size{"small": Small, "Medium": Medium, "LARGE": Large} {
		if got, err := ParseSize(in); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "huge", "smal"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) accepted", in)
		}
	}
}
