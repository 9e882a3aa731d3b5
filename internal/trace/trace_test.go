package trace

import (
	"testing"
	"testing/quick"
)

func ctx(warp int) Ctx { return Ctx{GlobalWarp: warp} }

func TestPrivateSweepDisjointWarps(t *testing.T) {
	p := PrivateSweep{Region: 1, Lines: 16, Step: 1}
	seen := map[uint64]int{}
	for w := 0; w < 4; w++ {
		for s := 0; s < 64; s++ {
			a := p.Addr(ctx(w), s)
			if prev, ok := seen[a]; ok && prev != w {
				t.Fatalf("warps %d and %d share address %x", prev, w, a)
			}
			seen[a] = w
		}
	}
}

func TestPrivateSweepFootprint(t *testing.T) {
	p := PrivateSweep{Region: 2, Lines: 12, Step: 1}
	distinct := map[uint64]bool{}
	for s := 0; s < 200; s++ {
		distinct[p.Addr(ctx(0), s)] = true
	}
	if len(distinct) != 12 {
		t.Fatalf("footprint = %d lines, want 12", len(distinct))
	}
}

func TestDwellGroupsAccesses(t *testing.T) {
	p := PrivateSweep{Region: 3, Lines: 8, Step: 1, Dwell: 4}
	for s := 0; s < 32; s += 4 {
		base := p.Addr(ctx(0), s)
		for k := 1; k < 4; k++ {
			if p.Addr(ctx(0), s+k) != base {
				t.Fatalf("dwell group broken at seq %d", s+k)
			}
		}
		if s >= 4 && p.Addr(ctx(0), s) == p.Addr(ctx(0), s-4) {
			t.Fatalf("consecutive dwell groups should differ at seq %d", s)
		}
	}
}

func TestSharedSweepIsShared(t *testing.T) {
	p := SharedSweep{Region: 4, Lines: 32, Step: 1}
	if p.Addr(ctx(0), 5) != p.Addr(ctx(9), 5) {
		t.Fatal("warps at the same seq with no lag must collide")
	}
	lagged := SharedSweep{Region: 4, Lines: 32, Step: 1, Lag: 3}
	if lagged.Addr(ctx(0), 5) == lagged.Addr(ctx(1), 5) {
		t.Fatal("lagged warps must be offset")
	}
}

func TestStreamMonotoneNoReuse(t *testing.T) {
	s := Stream{Region: 5, WrapLines: 1 << 12}
	prev := uint64(0)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		a := s.Addr(ctx(0), i)
		if seen[a] {
			t.Fatalf("stream reused address %x at seq %d", a, i)
		}
		seen[a] = true
		if a < prev {
			t.Fatal("stream must advance monotonically before wrap")
		}
		prev = a
	}
}

func TestIrregularPrivateStaysInRegion(t *testing.T) {
	p := IrregularPrivate{Region: 6, Lines: 100, Seed: 1}
	base := p.Addr(ctx(3), 0) &^ ((1 << warpRegionShift) - 1)
	for s := 0; s < 500; s++ {
		a := p.Addr(ctx(3), s)
		if a&^((1<<warpRegionShift)-1) != base {
			t.Fatalf("address %x escaped warp region %x", a, base)
		}
		off := (a - base) / LineBytes
		if off >= 100 {
			t.Fatalf("line offset %d beyond footprint", off)
		}
	}
}

func TestIrregularSharedCluster(t *testing.T) {
	p := IrregularShared{Region: 7, Lines: 1000, Seed: 2, Cluster: 4}
	// Two warps at the same seq must be within the cluster radius.
	for s := 0; s < 100; s++ {
		a := p.Addr(ctx(0), s) / LineBytes
		b := p.Addr(ctx(1), s) / LineBytes
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		// Clustered jitter keeps same-seq accesses within Cluster lines
		// (modulo the region wrap).
		if d >= 4 && d <= int64(1000-4) {
			t.Fatalf("seq %d: warps %d lines apart, cluster is 4", s, d)
		}
	}
}

func TestPhasedSwitch(t *testing.T) {
	a := PrivateSweep{Region: 8, Lines: 4, Step: 1}
	b := PrivateSweep{Region: 9, Lines: 4, Step: 1}
	p := Phased{SwitchAt: 10, A: a, B: b}
	if p.Addr(ctx(0), 9) != a.Addr(ctx(0), 9) {
		t.Fatal("before switch must use A")
	}
	if p.Addr(ctx(0), 10) != b.Addr(ctx(0), 0) {
		t.Fatal("after switch must use B with rebased seq")
	}
}

// Property: every pattern is a pure function of (ctx, seq).
func TestPatternsDeterministic(t *testing.T) {
	pats := []Pattern{
		PrivateSweep{Region: 10, Lines: 33, Step: 1, Dwell: 2},
		SharedSweep{Region: 11, Lines: 77, Step: 1, Lag: 2, Dwell: 3},
		Stream{Region: 12, WrapLines: 1024, Dwell: 4},
		IrregularPrivate{Region: 13, Lines: 50, Seed: 3, Dwell: 2},
		IrregularShared{Region: 14, Lines: 200, Seed: 4, Cluster: 8},
	}
	f := func(warp uint8, seq uint16) bool {
		c := ctx(int(warp))
		for _, p := range pats {
			if p.Addr(c, int(seq)) != p.Addr(c, int(seq)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: all pattern addresses are line-aligned.
func TestPatternAlignment(t *testing.T) {
	pats := []Pattern{
		PrivateSweep{Region: 20, Lines: 9, Step: 1},
		SharedSweep{Region: 21, Lines: 13, Step: 1},
		Stream{Region: 22},
		IrregularPrivate{Region: 23, Lines: 7, Seed: 5},
		IrregularShared{Region: 24, Lines: 11, Seed: 6},
	}
	f := func(warp uint8, seq uint16) bool {
		for _, p := range pats {
			if p.Addr(ctx(int(warp)), int(seq))%LineBytes != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionsDisjoint(t *testing.T) {
	a := PrivateSweep{Region: 30, Lines: 1000, Step: 1}
	b := PrivateSweep{Region: 31, Lines: 1000, Step: 1}
	for s := 0; s < 100; s++ {
		if a.Addr(ctx(0), s) == b.Addr(ctx(0), s) {
			t.Fatal("different regions must not collide")
		}
	}
}
