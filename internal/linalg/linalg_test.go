package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

// rows builds a matrix from equal-length rows.
func rows(r [][]float64) *Mat {
	m := NewMat(len(r), len(r[0]))
	for i := range r {
		copy(m.Data[i*m.Cols:], r[i])
	}
	return m
}

// gram returns xᵀx, summed element by element.
func gram(x *Mat) *Mat {
	g := NewMat(x.Cols, x.Cols)
	for i := 0; i < x.Cols; i++ {
		for j := 0; j < x.Cols; j++ {
			var s float64
			for k := 0; k < x.Rows; k++ {
				s += x.At(k, i) * x.At(k, j)
			}
			g.Set(i, j, s)
		}
	}
	return g
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := rows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("Solve = %v, want %v", x, want)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := rows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system must error")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	a := rows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L * Lᵀ must reconstruct a.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var back float64
			for k := 0; k < 3; k++ {
				back += l.At(i, k) * l.At(j, k)
			}
			if math.Abs(back-a.At(i, j)) > 1e-9 {
				t.Fatalf("L*Lt != a at (%d,%d)", i, j)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := rows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("indefinite matrix must be rejected")
	}
}

// Property: for random SPD systems (built as AᵀA + I), SolveSPD and the
// pivoted Solve agree.
func TestSolveSPDAgreesWithSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(seed)
		n := 2 + int(abs64(seed))%4
		raw := NewMat(n, n)
		for i := range raw.Data {
			raw.Data[i] = rng()
		}
		spd := Ridge(gram(raw), 1)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng()
		}
		x1, err1 := SolveSPD(spd, b)
		x2, err2 := Solve(spd, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-6*(1+math.Abs(x2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: XtWX with unit weights equals XᵀX.
func TestXtWXUnitWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(seed)
		rows, cols := 3+int(abs64(seed))%5, 2+int(abs64(seed)>>3)%3
		x := NewMat(rows, cols)
		for i := range x.Data {
			x.Data[i] = rng()
		}
		w := make([]float64, rows)
		for i := range w {
			w[i] = 1
		}
		got, err := XtWX(x, w)
		if err != nil {
			return false
		}
		want := gram(x)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestXtWzMatchesNaive(t *testing.T) {
	x := rows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	w := []float64{0.5, 2, 1}
	z := []float64{1, -1, 2}
	got, err := XtWz(x, w, z)
	if err != nil {
		t.Fatal(err)
	}
	// naive: sum_i w_i z_i x_ij
	want := []float64{0.5*1*1 + 2*-1*3 + 1*2*5, 0.5*1*2 + 2*-1*4 + 1*2*6}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Fatalf("XtWz = %v, want %v", got, want)
		}
	}
}

func TestRidge(t *testing.T) {
	a := rows([][]float64{{1, 0}, {0, 1}})
	Ridge(a, 0.5)
	if a.At(0, 0) != 1.5 || a.At(1, 1) != 1.5 || a.At(0, 1) != 0 {
		t.Fatalf("Ridge wrong: %+v", a)
	}
}

// newTestRNG returns a tiny deterministic float generator for property
// tests (linalg cannot import stats without creating a cycle in tests).
func newTestRNG(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%2000)/1000 - 1
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
