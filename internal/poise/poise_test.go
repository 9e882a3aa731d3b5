package poise

import (
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"poise/internal/cache"
	"poise/internal/sm"
)

func TestFeaturesTableIIStructure(t *testing.T) {
	base := Window{HitRate: 0.3, IntraRate: 0.2, AML: 400, InstrPerLoad: 4}
	ref := Window{HitRate: 0.8, IntraRate: 0.7, AML: 150, InstrPerLoad: 4}
	x := Features(base, ref)
	if x[0] != 0.3 || x[1] != 0.8 || x[2] != 0.2 || x[3] != 0.7 {
		t.Fatalf("hit-rate features wrong: %v", x)
	}
	dEta := 0.5
	if math.Abs(x[4]-dEta*dEta) > 1e-12 {
		t.Fatalf("x5 = %v, want %v", x[4], dEta*dEta)
	}
	if math.Abs(x[5]-4*dEta*dEta) > 1e-12 {
		t.Fatalf("x6 = %v, want %v", x[5], 4*dEta*dEta)
	}
	lat := 150*0.2 - 400*0.7
	if math.Abs(x[6]-lat*lat/1e4) > 1e-9 {
		t.Fatalf("x7 = %v, want %v", x[6], lat*lat/1e4)
	}
	if x[7] != 1 {
		t.Fatal("x8 must be the constant intercept")
	}
}

func TestFeaturesInCapped(t *testing.T) {
	base := Window{HitRate: 0.5, IntraRate: 0.1, InstrPerLoad: 1e9}
	ref := Window{HitRate: 0.5, IntraRate: 0.6}
	x := Features(base, ref)
	if x[5] > maxIn {
		t.Fatalf("x6 = %v exceeds the In cap", x[5])
	}
}

func TestWindowFrom(t *testing.T) {
	l1 := cache.Stats{Accesses: 100, Hits: 40, IntraWarpHits: 30}
	c := sm.Counters{Instructions: 600, Loads: 100, AMLSum: 3000, AMLCount: 10}
	w := WindowFrom(l1, c)
	if w.HitRate != 0.4 || w.IntraRate != 0.3 || w.AML != 300 || w.InstrPerLoad != 6 {
		t.Fatalf("WindowFrom wrong: %+v", w)
	}
}

func TestScaleTargetAndReverse(t *testing.T) {
	// With the full 24 warps available, scaling is the identity.
	if got := ScaleTarget(10, 24); got != 10 {
		t.Fatalf("ScaleTarget(10,24) = %v", got)
	}
	// A 12-warp kernel's target 6 scales to 12 in the 24-space.
	if got := ScaleTarget(6, 12); got != 12 {
		t.Fatalf("ScaleTarget(6,12) = %v", got)
	}
	// Reverse scaling round-trips within rounding for every (v, maxN).
	f := func(v, maxN uint8) bool {
		m := int(maxN%24) + 1
		val := int(v)%m + 1
		s := ScaleTarget(val, m)
		back := reverseScale(s, m)
		d := back - val
		if d < 0 {
			d = -d
		}
		return d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictTupleClamps(t *testing.T) {
	var w Weights
	// Huge positive weights: prediction must clamp to maxN and p <= N.
	for i := range w.Alpha {
		w.Alpha[i] = 10
		w.Beta[i] = 20
	}
	x := Vector{1, 1, 1, 1, 1, 1, 1, 1}
	n, p := w.PredictTuple(x, 24)
	if n != 24 || p != 24 {
		t.Fatalf("clamp high failed: (%d,%d)", n, p)
	}
	for i := range w.Alpha {
		w.Alpha[i] = -10
		w.Beta[i] = -10
	}
	n, p = w.PredictTuple(x, 24)
	if n != 1 || p != 1 {
		t.Fatalf("clamp low failed: (%d,%d)", n, p)
	}
}

func TestWeightsSaveLoadValidate(t *testing.T) {
	w := Weights{TrainKernels: 5}
	w.Alpha[0] = 0.5
	w.Beta[7] = 1.5
	path := filepath.Join(t.TempDir(), "w.json")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWeights(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Alpha[0] != 0.5 || back.Beta[7] != 1.5 || back.TrainKernels != 5 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	var zero Weights
	if err := zero.Validate(); err == nil {
		t.Fatal("all-zero weights must be invalid")
	}
	bad := w
	bad.Alpha[1] = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN weights must be invalid")
	}
}

func TestAnalyticModelEquations(t *testing.T) {
	// Eq. 1: ceil growth in integer multiples of Lo.
	if got := TMem(32, 0.5, 100, 32); got != 100 {
		t.Fatalf("TMem = %v, want 100", got)
	}
	if got := TMem(33, 1.0, 100, 32); got != 200 {
		t.Fatalf("TMem ceil = %v, want 200", got)
	}
	// Eq. 2/3.
	if got := TBusy(10, 0.5, 4, 2); got != 40 {
		t.Fatalf("TBusy = %v", got)
	}
	if got := TStall(100, 40); got != 60 {
		t.Fatalf("TStall = %v", got)
	}
	if got := TStall(40, 100); got != 0 {
		t.Fatal("TStall must clamp at zero")
	}
	// Eq. 4/5 reduce to Eq. 1/2 when p == N.
	if TMemReduced(16, 16, 0.5, 0.9, 100, 32) != TMem(16, 0.5, 100, 32) {
		t.Fatal("TMemReduced(p=N) must equal TMem")
	}
	if TBusyReduced(16, 16, 0.6, 0.1, 4, 2) != TBusy(16, 0.6, 4, 2) {
		t.Fatal("TBusyReduced(p=N) must equal TBusy")
	}
}

func TestMuSpeedupCriterion(t *testing.T) {
	// A favourable tuple: big hit-rate gain for p warps, mild loss for
	// the rest, latency roughly unchanged — µ must exceed 1 and the
	// stall model must predict a speedup.
	good := ModelInput{
		N: 16, P: 2, Kmshr: 32, Tpipe: 4, Id: 3,
		Ho: 0.2, Hp: 0.9, Hnp: 0.25,
		Lo: 400, Lprime: 350,
	}
	if mu := good.Mu(); mu >= 0 && mu <= 1 {
		t.Fatalf("favourable tuple should have µ > 1 or negative denominator, got %v", mu)
	}
	if !good.SpeedupPredicted() {
		t.Fatal("stall model must predict speedup for the favourable tuple")
	}
	// An unfavourable tuple: hit rates collapse, latency explodes.
	bad := ModelInput{
		N: 16, P: 2, Kmshr: 32, Tpipe: 4, Id: 3,
		Ho: 0.6, Hp: 0.6, Hnp: 0.05,
		Lo: 200, Lprime: 500,
	}
	if bad.SpeedupPredicted() {
		t.Fatal("stall model must not predict speedup when locality collapses")
	}
}

func TestMuPNPMonotoneInHitGain(t *testing.T) {
	mk := func(hp float64) ModelInput {
		return ModelInput{
			N: 16, P: 2, Kmshr: 32, Tpipe: 4, Id: 3,
			Ho: 0.2, Hp: hp, Hnp: 0.2,
			Lo: 300, Lprime: 320,
		}
	}
	lo := mk(0.4).MuPNP()
	hi := mk(0.9).MuPNP()
	if hi <= lo {
		t.Fatalf("µ_p/np must grow with the hit-rate gain: %v -> %v", lo, hi)
	}
}

func TestActiveColumns(t *testing.T) {
	cols := activeColumns(-1)
	if len(cols) != NumFeatures {
		t.Fatalf("no drop: %d cols", len(cols))
	}
	cols = activeColumns(3)
	if len(cols) != NumFeatures-1 {
		t.Fatalf("drop: %d cols", len(cols))
	}
	for _, c := range cols {
		if c == 3 {
			t.Fatal("dropped column still present")
		}
	}
}

func TestEvaluateOffline(t *testing.T) {
	var w Weights
	w.Alpha[7] = math.Log(8) // predicts N = 8 for any input
	w.Beta[7] = math.Log(4)
	samples := []Sample{
		{X: Vector{0, 0, 0, 0, 0, 0, 0, 1}, RawN: 8, RawP: 4, MaxN: 24},
		{X: Vector{0, 0, 0, 0, 0, 0, 0, 1}, RawN: 16, RawP: 8, MaxN: 24},
	}
	errN, errP := EvaluateOffline(w, samples)
	if errN != 0.25 || errP != 0.25 {
		t.Fatalf("offline error = %v/%v, want 0.25/0.25", errN, errP)
	}
	if n, p := EvaluateOffline(w, nil); n != 0 || p != 0 {
		t.Fatal("empty set must report zero")
	}
}
