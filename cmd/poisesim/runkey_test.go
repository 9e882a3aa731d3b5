package main

import (
	"testing"

	"poise/internal/workloads"
)

// TestRunKeyNamesTheKernels: a checkpoint key covers the kernels a run
// simulates, not only its name and flags. The medium ii, as a -trace of
// it would put it over the small catalogue entry, has the same name and
// launch geometry as the small one (size scales iterations), so a key of
// name and flags alone would resume one's checkpoint against the other.
func TestRunKeyNamesTheKernels(t *testing.T) {
	const flags = "gto|small|sms4|l1x1|seed0|n0|p0"
	small := workloads.NewCatalogue(workloads.Small).Must("ii")
	medium := workloads.NewCatalogue(workloads.Medium).Must("ii")
	if small.Name != medium.Name || small.Kernels[0].Blocks != medium.Kernels[0].Blocks {
		t.Fatal("the two ii sizes no longer share name and geometry: pick another pair")
	}
	if runKey(small, flags) == runKey(medium, flags) {
		t.Fatalf("two workloads named %q with different kernels share the key %q", small.Name, runKey(small, flags))
	}
	again := workloads.NewCatalogue(workloads.Small).Must("ii")
	if runKey(small, flags) != runKey(again, flags) {
		t.Fatal("one workload, built twice, got two keys")
	}
	if runKey(small, flags) == runKey(small, "fixed|small|sms4|l1x1|seed0|n2|p1") {
		t.Fatal("the key ignores the flags")
	}
}
