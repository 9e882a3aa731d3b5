package profile

import (
	"os"
	"reflect"
	"testing"

	"poise/internal/config"
	"poise/internal/testutil"
	"poise/internal/trace"
)

func sweepTiny(t *testing.T) *Profile {
	t.Helper()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	pr, err := Sweep(testutil.TinyConfig(), k, SweepOptions{StepN: 6, StepP: 6})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestSweepBasics(t *testing.T) {
	pr := sweepTiny(t)
	if pr.Kernel != "sweep" {
		t.Fatalf("kernel name %q", pr.Kernel)
	}
	if pr.MaxN != testutil.TinyConfig().WarpsPerSched {
		t.Fatalf("MaxN = %d", pr.MaxN)
	}
	if pr.Baseline.Speedup != 1 {
		t.Fatalf("baseline speedup = %v", pr.Baseline.Speedup)
	}
	if pr.BaselineCycles <= 0 || pr.BaselineInstr <= 0 {
		t.Fatal("baseline bookkeeping missing")
	}
	// The corners the experiments rely on must always be present.
	for _, c := range [][2]int{{pr.MaxN, pr.MaxN}, {pr.MaxN, 1}, {1, 1}} {
		if _, ok := pr.Lookup(c[0], c[1]); !ok {
			t.Fatalf("corner %v missing", c)
		}
	}
	// All points obey 1 <= p <= N <= MaxN and appear once.
	seen := map[[2]int]bool{}
	for _, pt := range pr.Points {
		if pt.P < 1 || pt.P > pt.N || pt.N > pr.MaxN {
			t.Fatalf("invalid point %+v", pt)
		}
		key := [2]int{pt.N, pt.P}
		if seen[key] {
			t.Fatalf("duplicate point %v", key)
		}
		seen[key] = true
	}
}

func TestBestAndDiagonal(t *testing.T) {
	pr := sweepTiny(t)
	best := pr.Best()
	diag := pr.BestDiagonal()
	if diag.N != diag.P {
		t.Fatalf("diagonal best off-diagonal: %+v", diag)
	}
	if best.Speedup < diag.Speedup {
		t.Fatal("global best cannot be below the diagonal best")
	}
	for _, pt := range pr.Points {
		if pt.Speedup > best.Speedup {
			t.Fatal("Best missed a better point")
		}
	}
}

func TestScoreUniformProfile(t *testing.T) {
	// On a synthetic profile with constant speedup, every score equals
	// that speedup regardless of neighbour availability (the boundary
	// normalisation of Eq. 12).
	pr := &Profile{Kernel: "flat", MaxN: 4}
	for n := 1; n <= 4; n++ {
		for p := 1; p <= n; p++ {
			pr.Points = append(pr.Points, Point{N: n, P: p, Speedup: 2})
		}
	}
	for _, pt := range pr.Points {
		s, ok := pr.Score(pt.N, pt.P, 1, 0.5, 0.25)
		if !ok {
			t.Fatalf("score missing at %v", pt)
		}
		if s < 1.999 || s > 2.001 {
			t.Fatalf("flat profile score = %v at (%d,%d), want 2", s, pt.N, pt.P)
		}
	}
}

func TestScorePrefersSafeNeighbourhood(t *testing.T) {
	// A sharp peak beside a cliff must score below a slightly lower
	// plateau — the Fig. 5 behaviour.
	pr := &Profile{Kernel: "cliff", MaxN: 6}
	add := func(n, p int, s float64) {
		pr.Points = append(pr.Points, Point{N: n, P: p, Speedup: s})
	}
	for n := 1; n <= 6; n++ {
		for p := 1; p <= n; p++ {
			add(n, p, 1.0)
		}
	}
	// Peak at (2,1) with a cliff at (3,1); plateau around (5,3).
	set := func(n, p int, s float64) {
		for i := range pr.Points {
			if pr.Points[i].N == n && pr.Points[i].P == p {
				pr.Points[i].Speedup = s
			}
		}
	}
	set(2, 1, 1.50)
	set(3, 1, 0.40) // cliff
	set(5, 3, 1.40)
	set(4, 3, 1.35)
	set(6, 3, 1.35)
	set(5, 2, 1.35)
	set(5, 4, 1.35)
	set(4, 2, 1.30)
	set(6, 4, 1.30)
	best, _ := pr.BestScore(config.DefaultPoise())
	if best.N != 5 || best.P != 3 {
		t.Fatalf("scoring picked (%d,%d), want the safe plateau (5,3)", best.N, best.P)
	}
	// Yet raw Best still finds the sharp peak.
	if raw := pr.Best(); raw.N != 2 || raw.P != 1 {
		t.Fatalf("raw best = %+v, want the (2,1) peak", raw)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := Store{Dir: dir}
	pr := sweepTiny(t)
	e := testEntry("tag1", pr.Kernel)
	if err := st.save(e, pr); err != nil {
		t.Fatal(err)
	}
	back, err := st.load(e)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kernel != pr.Kernel || len(back.Points) != len(pr.Points) {
		t.Fatal("round trip lost data")
	}
	if back.Best() != pr.Best() {
		t.Fatal("round trip changed the optimum")
	}
}

func TestStoreMissAndCorrupt(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	if _, err := st.load(testEntry("none", "nothing")); err == nil {
		t.Fatal("missing cache entry must error")
	}
	e := testEntry("t", "k")
	if err := os.WriteFile(st.path(e), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.load(e); err == nil {
		t.Fatal("corrupt cache entry must error")
	}
	empty := Store{}
	if err := empty.save(e, &Profile{Kernel: "k"}); err == nil {
		t.Fatal("dirless store cannot save")
	}
}

// TestLookupIndexMatchesScan pins the O(1) point index against the
// linear-scan semantics it replaced, duplicates included (first
// occurrence wins) — both before the index is built (hand-assembled
// profiles use the fallback scan) and after.
func TestLookupIndexMatchesScan(t *testing.T) {
	pr := &Profile{Kernel: "idx", MaxN: 5}
	for n := 1; n <= 5; n++ {
		for p := 1; p <= n; p++ {
			pr.Points = append(pr.Points, Point{N: n, P: p, IPC: float64(n*10 + p)})
		}
	}
	pr.Points = append(pr.Points, Point{N: 3, P: 2, IPC: -1}) // malformed duplicate
	scan := func(n, p int) (Point, bool) {
		for _, pt := range pr.Points {
			if pt.N == n && pt.P == p {
				return pt, true
			}
		}
		return Point{}, false
	}
	check := func(mode string) {
		for n := 0; n <= 6; n++ {
			for p := 0; p <= 6; p++ {
				got, okGot := pr.Lookup(n, p)
				want, okWant := scan(n, p)
				if okGot != okWant || got != want {
					t.Fatalf("%s Lookup(%d,%d) = %+v,%v, scan says %+v,%v", mode, n, p, got, okGot, want, okWant)
				}
			}
		}
	}
	check("unindexed")
	pr.buildIndex()
	check("indexed")
}

// TestSweptProfilesDeepEqual: profiles from a sweep and from the cache
// must stay reflect.DeepEqual however many queries either has served —
// the index is built eagerly at construction, never mutated by reads.
func TestSweptProfilesDeepEqual(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	pr := sweepTiny(t)
	e := testEntry("t", pr.Kernel)
	if err := st.save(e, pr); err != nil {
		t.Fatal(err)
	}
	back, err := st.load(e)
	if err != nil {
		t.Fatal(err)
	}
	pr.BestScore(config.DefaultPoise()) // exercise lookups on one side only
	if !reflect.DeepEqual(pr, back) {
		t.Fatal("swept and loaded profiles are not DeepEqual")
	}
}

// TestProfileJSONStableAcrossIndex: the index must never leak
// into the serialised form — encode, decode, query (which builds the
// index), and re-encode must be byte-identical.
func TestProfileJSONStableAcrossIndex(t *testing.T) {
	dir := t.TempDir()
	st := Store{Dir: dir}
	pr := sweepTiny(t)
	e := testEntry("tag", pr.Kernel)
	if err := st.save(e, pr); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(st.path(e))
	if err != nil {
		t.Fatal(err)
	}
	back, err := st.load(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Lookup(1, 1); !ok {
		t.Fatal("decoded profile misses (1,1)")
	}
	if err := st.save(e, back); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(st.path(e))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("JSON round trip is not byte-identical after the index is built")
	}
}

// testEntry is an entry for a profile that was not swept from a
// kernel: a store file name to save and load under.
func testEntry(tag, kernel string) entry {
	return entry{kernel: &trace.Kernel{Name: kernel}, tag: tag, digest: "0123456789abcdef"}
}

// loadOrSweep is Store.LoadOrSweepAll of the one kernel k.
func loadOrSweep(st Store, cfg config.Config, k *trace.Kernel, opts SweepOptions) (*Profile, error) {
	out, err := st.LoadOrSweepAll(cfg, []*trace.Kernel{k}, opts)
	if err != nil {
		return nil, err
	}
	return out[0].Profile, nil
}

func TestLoadOrSweepCaches(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	k := testutil.ThrashKernel("los", 16, 10, 4)
	opts := SweepOptions{StepN: 8, StepP: 8}
	cfg := testutil.TinyConfig()
	a, err := loadOrSweep(st, cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Second call must come from disk and agree exactly.
	b, err := loadOrSweep(st, cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Baseline.IPC != b.Baseline.IPC || len(a.Points) != len(b.Points) {
		t.Fatal("cached profile differs from the sweep")
	}
}
