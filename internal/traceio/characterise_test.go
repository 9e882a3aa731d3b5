package traceio

import (
	"math"
	"math/rand"
	"testing"

	"poise/internal/sim"
	"poise/internal/trace"
)

// patternWorkload wraps one pattern in a single-kernel workload with
// the given body shape.
func patternWorkload(t *testing.T, name string, p trace.Pattern, gap, iters, warps, blocks int) *sim.Workload {
	t.Helper()
	b := &trace.BodyBuilder{}
	b.Load(1)
	b.ALU(gap)
	return &sim.Workload{Name: name, Kernels: []*trace.Kernel{{
		Name:          name + "#0",
		Body:          b.Body(),
		Patterns:      []trace.Pattern{p},
		Iters:         iters,
		WarpsPerBlock: warps,
		Blocks:        blocks,
	}}}
}

func TestCharacterisePrivateSweep(t *testing.T) {
	// Per-warp private footprints: every reuse is intra-warp and every
	// warp touches exactly Lines lines.
	w := patternWorkload(t, "priv",
		trace.PrivateSweep{Region: 21, Lines: 16, Step: 1}, 3, 64, 4, 2)
	sig := mustCharacterise(t, mustRecord(t, w), CharacteriseOptions{})
	if sig.Workload != "priv" || sig.Kernels != 1 {
		t.Fatalf("identity wrong: %+v", sig)
	}
	if got, want := sig.In, 4.0; got != want {
		t.Fatalf("In = %v, want %v", got, want)
	}
	if sig.FootprintLines != 16 {
		t.Fatalf("footprint = %v, want 16", sig.FootprintLines)
	}
	if sig.IntraPct != 100 || sig.InterPct != 0 {
		t.Fatalf("private sweep must be pure intra-warp: %+v", sig)
	}
	// Single-warp R of a step-1 sweep over 16 lines: every reuse sits
	// at stack distance 15.
	if sig.ReuseDist < 14 || sig.ReuseDist > 16 {
		t.Fatalf("R = %v, want ~15", sig.ReuseDist)
	}
	if sig.Accesses != 64*8 {
		t.Fatalf("accesses = %d, want %d", sig.Accesses, 64*8)
	}
	// 8 warps × 16 private lines are cold exactly once each.
	if got, want := sig.ColdPct, 100*float64(8*16)/float64(64*8); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ColdPct = %v, want %v", got, want)
	}
}

func TestCharacteriseSharedSweep(t *testing.T) {
	// In-phase shared sweep: every warp touches the same line each
	// iteration, so all reuse is inter-warp and tight.
	w := patternWorkload(t, "shared",
		trace.SharedSweep{Region: 22, Lines: 12, Step: 1, Lag: 0}, 2, 48, 4, 2)
	sig := mustCharacterise(t, mustRecord(t, w), CharacteriseOptions{})
	if sig.InterPct < 99 {
		t.Fatalf("in-phase shared sweep must be inter-warp dominated: %+v", sig)
	}
	if sig.FootprintLines != 12 {
		t.Fatalf("footprint = %v, want 12", sig.FootprintLines)
	}
	if sig.ReuseDist > 12 {
		t.Fatalf("in-phase reuse must be tight, R = %v", sig.ReuseDist)
	}
}

func TestCharacteriseStreamNoReuse(t *testing.T) {
	w := patternWorkload(t, "stream",
		trace.Stream{Region: 23, WrapLines: 1 << 16}, 1, 40, 4, 2)
	sig := mustCharacterise(t, mustRecord(t, w), CharacteriseOptions{})
	if sig.ColdPct != 100 {
		t.Fatalf("pure stream must be all cold misses: %+v", sig)
	}
	if sig.ReuseDist != 0 {
		t.Fatalf("pure stream has no finite reuse, R = %v", sig.ReuseDist)
	}
}

func TestCharacteriseSamplingCap(t *testing.T) {
	w := patternWorkload(t, "capped",
		trace.PrivateSweep{Region: 24, Lines: 8, Step: 1}, 1, 100, 4, 2)
	sig := mustCharacterise(t, mustRecord(t, w), CharacteriseOptions{MaxAccesses: 50})
	if sig.Accesses != 50 {
		t.Fatalf("cap ignored: %d accesses profiled", sig.Accesses)
	}
	// Footprint always uses the full trace regardless of the cap.
	if sig.FootprintLines != 8 {
		t.Fatalf("footprint = %v, want 8", sig.FootprintLines)
	}
}

func TestCharacteriseLoadlessKernel(t *testing.T) {
	b := &trace.BodyBuilder{}
	b.ALU(3)
	b.Store()
	w := &sim.Workload{Name: "storeonly", Kernels: []*trace.Kernel{{
		Name:          "storeonly#0",
		Body:          b.Body(),
		Patterns:      []trace.Pattern{trace.Stream{Region: 25, WrapLines: 32}},
		Iters:         10,
		WarpsPerBlock: 2,
		Blocks:        1,
	}}}
	sig := mustCharacterise(t, mustRecord(t, w), CharacteriseOptions{})
	if sig.In < 1000 {
		t.Fatalf("loadless kernel must report effectively-infinite In, got %v", sig.In)
	}
	if sig.Accesses != 0 || !noNaN(sig) {
		t.Fatalf("loadless signature malformed: %+v", sig)
	}
}

func noNaN(s Signature) bool {
	for _, v := range []float64{s.In, s.FootprintLines, s.ReuseDist, s.IntraPct, s.InterPct, s.ColdPct} {
		if math.IsNaN(v) {
			return false
		}
	}
	return true
}

// TestDistinctSetCountsWhatAMapCounts: the open-addressing set that
// footprints are counted on and the interleaved scan keeps each line's
// last warp in, reused from one stream to the next as the ingest path
// reuses it (streams of any length in any order, values that collide,
// zero among them, the table growing mid-stream, the stamp wrapping), counts and tags what
// the map it replaced counts and holds.
func TestDistinctSetCountsWhatAMapCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var set distinctSet
	for round := 0; round < 400; round++ {
		n := rng.Intn(1 << uint(rng.Intn(12)))
		span := uint64(1 + rng.Intn(4*n+1)) // few distinct values up to nearly all
		stride := uint64(1) << uint(rng.Intn(40))
		want := map[uint64]int32{}
		set.reset()
		for i := 0; i < n; i++ {
			v := (rng.Uint64() % span) * stride
			last, seen := want[v]
			if !seen {
				last = -1
			}
			tag := set.tag(v)
			if *tag != last {
				t.Fatalf("round %d access %d: value %d tagged %d, the map holds %d", round, i, v, *tag, last)
			}
			*tag, want[v] = int32(i), int32(i)
		}
		if set.n != len(want) {
			t.Fatalf("round %d: %d values over %d x %d: the set counts %d, a map %d", round, n, span, stride, set.n, len(want))
		}
	}

	// A stamp that wraps must not bring back what it once stamped.
	var wrapped distinctSet
	wrapped.reset()
	*wrapped.tag(7) = 5
	wrapped.stamp = math.MaxUint32
	wrapped.reset()
	if tag := *wrapped.tag(7); tag != -1 || wrapped.n != 1 {
		t.Fatalf("after the stamp wrapped, 7 came back tagged %d (set counts %d)", tag, wrapped.n)
	}
}
