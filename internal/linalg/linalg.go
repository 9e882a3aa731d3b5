// Package linalg implements the small dense linear-algebra kernel the
// regression framework needs: column-major-free dense matrices, products,
// and linear solves (Gaussian elimination with partial pivoting plus a
// Cholesky path for the symmetric positive-definite normal equations that
// IRLS produces). Only the stdlib is used.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMat allocates a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// ErrSingular is returned when a solve encounters a (numerically)
// singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// Solve solves a*x = b by Gaussian elimination with partial pivoting.
// a and b are not modified.
func Solve(a *Mat, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: solve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	// Augmented working copies.
	m := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if piv != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[piv*n+j] = m.Data[piv*n+j], m.Data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// Cholesky computes the lower-triangular factor L with a = L*Lᵀ for a
// symmetric positive-definite matrix a. It returns ErrSingular if a is
// not positive definite (within tolerance).
func Cholesky(a *Mat) (*Mat, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: cholesky needs square matrix")
	}
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveSPD solves a*x = b for symmetric positive-definite a via
// Cholesky, falling back to pivoted Gaussian elimination when the
// factorisation fails (e.g. a semi-definite normal matrix from
// collinear features).
func SolveSPD(a *Mat, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return Solve(a, b)
	}
	n := a.Rows
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// XtWX computes Xᵀ W X where w holds the diagonal of W. It exploits the
// symmetric structure and is the hot operation inside IRLS.
func XtWX(x *Mat, w []float64) (*Mat, error) {
	if len(w) != x.Rows {
		return nil, fmt.Errorf("linalg: weight length %d, want %d", len(w), x.Rows)
	}
	p := x.Cols
	out := NewMat(p, p)
	for r := 0; r < x.Rows; r++ {
		wr := w[r]
		if wr == 0 {
			continue
		}
		row := x.Data[r*p : (r+1)*p]
		for i := 0; i < p; i++ {
			wi := wr * row[i]
			if wi == 0 {
				continue
			}
			orow := out.Data[i*p : (i+1)*p]
			for j := i; j < p; j++ {
				orow[j] += wi * row[j]
			}
		}
	}
	// Mirror upper triangle to lower.
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			out.Set(j, i, out.At(i, j))
		}
	}
	return out, nil
}

// XtWz computes Xᵀ W z where w holds the diagonal of W.
func XtWz(x *Mat, w, z []float64) ([]float64, error) {
	if len(w) != x.Rows || len(z) != x.Rows {
		return nil, fmt.Errorf("linalg: weight/rhs length mismatch")
	}
	p := x.Cols
	out := make([]float64, p)
	for r := 0; r < x.Rows; r++ {
		f := w[r] * z[r]
		if f == 0 {
			continue
		}
		row := x.Data[r*p : (r+1)*p]
		for j := 0; j < p; j++ {
			out[j] += f * row[j]
		}
	}
	return out, nil
}

// Ridge adds lambda to the diagonal of a in place and returns a. IRLS
// uses a tiny ridge to stabilise nearly-collinear feature matrices.
func Ridge(a *Mat, lambda float64) *Mat {
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	for i := 0; i < n; i++ {
		a.Data[i*a.Cols+i] += lambda
	}
	return a
}
