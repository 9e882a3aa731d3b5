package reuse

import (
	"testing"
	"testing/quick"

	"poise/internal/stats"
)

// naiveStackDistance computes the stack distance of each access by
// brute force: the number of distinct addresses since the previous
// access to the same address (-1 for cold).
func naiveStackDistance(stream []uint64) []int {
	out := make([]int, len(stream))
	for i, a := range stream {
		last := -1
		for j := i - 1; j >= 0; j-- {
			if stream[j] == a {
				last = j
				break
			}
		}
		if last < 0 {
			out[i] = -1
			continue
		}
		distinct := map[uint64]bool{}
		for j := last + 1; j < i; j++ {
			distinct[stream[j]] = true
		}
		out[i] = len(distinct)
	}
	return out
}

func TestProfilerMatchesNaive(t *testing.T) {
	stream := []uint64{1, 2, 3, 1, 2, 2, 4, 1, 5, 3}
	want := naiveStackDistance(stream)
	p := NewProfiler()
	for i, a := range stream {
		got := p.Touch(a)
		if got != want[i] {
			t.Fatalf("access %d (addr %d): distance %d, want %d", i, a, got, want[i])
		}
	}
}

// Property: profiler agrees with the naive reference on random streams.
func TestProfilerMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 20 + rng.Intn(80)
		space := 1 + rng.Intn(20)
		stream := make([]uint64, n)
		for i := range stream {
			stream[i] = uint64(rng.Intn(space))
		}
		want := naiveStackDistance(stream)
		p := NewProfiler()
		for i, a := range stream {
			if p.Touch(a) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestColdMissesAndDistinct(t *testing.T) {
	p := NewProfiler()
	for _, a := range []uint64{1, 2, 3, 1, 2} {
		p.Touch(a)
	}
	if p.ColdMisses != 3 {
		t.Fatalf("ColdMisses = %d, want 3", p.ColdMisses)
	}
	if len(p.index) != 3 {
		t.Fatalf("distinct lines = %d, want 3", len(p.index))
	}
	if p.Accesses != 5 {
		t.Fatalf("Accesses = %d, want 5", p.Accesses)
	}
}

func TestMeanDistance(t *testing.T) {
	p := NewProfiler()
	// 1,2,1: the reuse of 1 has distance 1. 2 never reused.
	p.Touch(1)
	p.Touch(2)
	p.Touch(1)
	if got := p.MeanDistance(); got != 1 {
		t.Fatalf("MeanDistance = %v, want 1", got)
	}
	empty := NewProfiler()
	if empty.MeanDistance() != 0 {
		t.Fatal("MeanDistance of empty profiler must be 0")
	}
}

// TestResetMatchesFresh: one profiler emptied with Reset between
// streams reports, touch by touch and in every total, what a new
// profiler reports on each stream.
func TestResetMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(17)
	reused := NewProfiler()
	for round := 0; round < 50; round++ {
		n := rng.Intn(300)
		span := 1 + rng.Intn(40)
		fresh := NewProfiler()
		reused.Reset()
		for i := 0; i < n; i++ {
			a := uint64(rng.Intn(span))
			if got, want := reused.Touch(a), fresh.Touch(a); got != want {
				t.Fatalf("round %d access %d: distance %d after Reset, %d fresh", round, i, got, want)
			}
		}
		if reused.Accesses != fresh.Accesses || reused.ColdMisses != fresh.ColdMisses ||
			len(reused.index) != len(fresh.index) || reused.MeanDistance() != fresh.MeanDistance() {
			t.Fatalf("round %d: totals after Reset differ from a fresh profiler's", round)
		}
	}
}
