package serve

import (
	"fmt"
	"math"
	"testing"
	"time"

	"poise/internal/poise"
)

// testWeights is a plausible hand-built model: mildly positive N
// coefficients, mildly negative p ones, so different feature vectors
// land on different tuples.
func testWeights() poise.Weights {
	w := poise.Weights{TrainKernels: 3, Dropped: -1}
	for i := 0; i < poise.NumFeatures; i++ {
		w.Alpha[i] = 0.35 - 0.04*float64(i)
		w.Beta[i] = 0.25 - 0.06*float64(i)
	}
	return w
}

func testVector(seed int) poise.Vector {
	var x poise.Vector
	for i := range x {
		x[i] = 0.1 + 0.9*math.Abs(math.Sin(float64(seed*7+i*3+1)))
	}
	return x
}

func TestDecideMatchesPredictTuple(t *testing.T) {
	w := testWeights()
	d, err := NewDecider(w)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 8; seed++ {
		x := testVector(seed)
		for _, maxN := range []int{1, 2, 6, 24, 48, MaxTableN, MaxTableN + 7} {
			wantN, wantP := w.PredictTuple(x, maxN)
			// Memoised and keyless paths must agree with the direct
			// prediction exactly.
			n, p, _ := d.Decide(fmt.Sprintf("k%d", seed), x, maxN)
			if n != wantN || p != wantP {
				t.Fatalf("Decide(k%d, maxN=%d) = (%d,%d), want (%d,%d)", seed, maxN, n, p, wantN, wantP)
			}
			n, p, cached := d.Decide("", x, maxN)
			if n != wantN || p != wantP || cached {
				t.Fatalf("keyless Decide(maxN=%d) = (%d,%d,%v), want (%d,%d,false)", maxN, n, p, cached, wantN, wantP)
			}
		}
	}
}

func TestDecideMemoisation(t *testing.T) {
	d, err := NewDecider(testWeights())
	if err != nil {
		t.Fatal(err)
	}
	x := testVector(1)
	if _, _, cached := d.Decide("k", x, 24); cached {
		t.Fatal("first decision for a key cannot be cached")
	}
	if _, _, cached := d.Decide("k", x, 24); !cached {
		t.Fatal("second decision for a key must be cached")
	}
	// A different maxN under the same key still hits: the whole table
	// was precomputed at first sight.
	if _, _, cached := d.Decide("k", x, 7); !cached {
		t.Fatal("same key, different maxN must be cached")
	}
	decisions, hits, misses := d.Counters()
	if decisions != 3 || hits != 2 || misses != 1 {
		t.Fatalf("counters = (%d,%d,%d), want (3,2,1)", decisions, hits, misses)
	}
}

func TestSwap(t *testing.T) {
	w := testWeights()
	d, err := NewDecider(w)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.Version(); v != 1 {
		t.Fatalf("boot version = %d, want 1", v)
	}
	x := testVector(2)
	d.Decide("k", x, 24) // populate the memo under v1

	w2 := w
	for i := range w2.Alpha {
		w2.Alpha[i] *= 1.5
	}
	v, err := d.Swap(w2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || d.Version() != 2 {
		t.Fatalf("post-swap version = %d/%d, want 2", v, d.Version())
	}
	// The old memo must not leak through: the first decision after a
	// swap re-derives from the new weights.
	wantN, wantP := w2.PredictTuple(x, 24)
	n, p, cached := d.Decide("k", x, 24)
	if cached {
		t.Fatal("memo table must be empty after a swap")
	}
	if n != wantN || p != wantP {
		t.Fatalf("post-swap Decide = (%d,%d), want (%d,%d)", n, p, wantN, wantP)
	}

	if _, err := d.Swap(poise.Weights{}); err == nil {
		t.Fatal("Swap must reject invalid weights")
	}
	if d.Version() != 2 {
		t.Fatal("rejected swap must not change the version")
	}
}

func TestNewDeciderValidates(t *testing.T) {
	if _, err := NewDecider(poise.Weights{}); err == nil {
		t.Fatal("NewDecider must reject all-zero weights")
	}
}

// TestDecideZeroAllocs pins the acceptance criterion: the steady-state
// decision path — memoised or keyless — performs zero heap
// allocations. This is what lets the service answer millions of
// decisions per second without GC pressure.
func TestDecideZeroAllocs(t *testing.T) {
	d, err := NewDecider(testWeights())
	if err != nil {
		t.Fatal(err)
	}
	x := testVector(3)
	d.Decide("hot", x, 24) // populate
	if avg := testing.AllocsPerRun(1000, func() {
		d.Decide("hot", x, 24)
	}); avg != 0 {
		t.Fatalf("memoised Decide allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		d.Decide("", x, 24)
	}); avg != 0 {
		t.Fatalf("keyless Decide allocates %.2f/op, want 0", avg)
	}
}

// TestDecideTablesAreBounded: a model memoises at most maxTables keys.
// Past the bound a new key is answered right, uncached and without
// allocating; keys tabled before keep hitting; a swap starts over.
func TestDecideTablesAreBounded(t *testing.T) {
	w := testWeights()
	d, err := NewDecider(w)
	if err != nil {
		t.Fatal(err)
	}
	x := testVector(4)
	for i := 0; i < maxTables; i++ {
		d.Decide(fmt.Sprintf("k%d", i), x, 24)
	}
	if got := d.Tables(); got != maxTables {
		t.Fatalf("Tables = %d after %d keys, want %d", got, maxTables, maxTables)
	}
	wantN, wantP := w.PredictTuple(x, 24)
	for i := 0; i < 2; i++ {
		if n, p, cached := d.Decide("one-too-many", x, 24); n != wantN || p != wantP || cached {
			t.Fatalf("past the bound: Decide = (%d,%d,%v), want (%d,%d,false)", n, p, cached, wantN, wantP)
		}
	}
	if got := d.Tables(); got != maxTables {
		t.Fatalf("Tables = %d past the bound, want %d", got, maxTables)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		d.Decide("one-too-many", x, 24)
	}); avg != 0 {
		t.Fatalf("Decide past the bound allocates %.2f/op, want 0", avg)
	}
	if _, _, cached := d.Decide("k0", x, 24); !cached {
		t.Fatal("a key tabled before the bound stopped hitting")
	}
	if _, err := d.Swap(w); err != nil {
		t.Fatal(err)
	}
	if got := d.Tables(); got != 0 {
		t.Fatalf("Tables = %d after a swap, want 0", got)
	}
	d.Decide("one-too-many", x, 24)
	if _, _, cached := d.Decide("one-too-many", x, 24); !cached || d.Tables() != 1 {
		t.Fatalf("after a swap the key is not tabled (Tables = %d)", d.Tables())
	}
}

func BenchmarkDecideUncached(b *testing.B) {
	d, err := NewDecider(testWeights())
	if err != nil {
		b.Fatal(err)
	}
	x := testVector(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decide("", x, 24)
	}
}

// BenchmarkDecideParallel measures the concurrent read path: every P
// goroutine hammers the same memoised keys, which is the worst case
// for a lock-based cache and the best case for the atomic-pointer +
// sync.Map design. Throughput should scale with GOMAXPROCS.
//
// The ObserveEach/ObserveBatch pair quantifies the /decide latency
// accounting: ObserveEach is the old per-decision path (two contended
// atomic adds per op), ObserveBatch the handler's current shape — a
// local histBatch flushed once per 64-decision batch.
func BenchmarkDecideParallel(b *testing.B) {
	d, err := NewDecider(testWeights())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		d.Decide(keys[i], testVector(i), 24)
	}
	run := func(b *testing.B, decide func(h *histogram, i int, x poise.Vector)) {
		var h histogram
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			x := testVector(5)
			i := 0
			for pb.Next() {
				decide(&h, i, x)
				i++
			}
		})
	}
	b.Run("Bare", func(b *testing.B) {
		run(b, func(h *histogram, i int, x poise.Vector) {
			d.Decide(keys[i&15], x, 24)
		})
	})
	b.Run("ObserveEach", func(b *testing.B) {
		run(b, func(h *histogram, i int, x poise.Vector) {
			t0 := time.Now()
			d.Decide(keys[i&15], x, 24)
			h.Observe(time.Since(t0).Nanoseconds())
		})
	})
	b.Run("ObserveBatch", func(b *testing.B) {
		var h histogram
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			x := testVector(5)
			var hb histBatch
			i := 0
			for pb.Next() {
				t0 := time.Now()
				d.Decide(keys[i&15], x, 24)
				hb.Observe(time.Since(t0).Nanoseconds())
				if i&63 == 63 {
					hb.FlushTo(&h)
				}
				i++
			}
			hb.FlushTo(&h)
		})
	})
}
