// Package cmat provides dense complex-valued vectors and matrices together
// with the numerical routines SpotFi needs: Hermitian products, norms, a
// cyclic-Jacobi Hermitian eigendecomposition, and a direct solver for the
// dominant eigenpairs (Householder tridiagonalization, QL, inverse
// iteration).
//
// The package is self-contained (stdlib only). Matrices are stored row-major
// in a single backing slice; all dimensions are fixed at construction.
package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense rows×cols complex matrix stored in row-major order.
type Matrix struct {
	rows, cols int
	data       []complex128
}

// New returns a zero rows×cols matrix. It panics if either dimension is
// not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// FromSlice builds a rows×cols matrix copying values from data, which must
// hold exactly rows*cols elements in row-major order.
func FromSlice(rows, cols int, data []complex128) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("cmat: FromSlice got %d elements, want %d", len(data), rows*cols))
	}
	m := New(rows, cols)
	copy(m.data, data)
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("cmat: FromRows requires at least one non-empty row")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("cmat: row %d has %d elements, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:], r)
	}
	return m
}

// Reshape returns a zeroed rows×cols matrix, reusing m's backing storage
// when its capacity suffices. Pass nil (or any previous scratch matrix) to
// size workspace arenas without allocating in steady state. The returned
// matrix aliases m's storage, so m must not be used afterwards.
//
//spotfi:noalloc
func Reshape(m *Matrix, rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmat: invalid dimensions %dx%d", rows, cols))
	}
	if m == nil || cap(m.data) < rows*cols {
		return New(rows, cols) //lint:allow noalloc first-call arena growth or a capacity change, cold by construction
	}
	m.rows, m.cols = rows, cols
	m.data = m.data[:rows*cols]
	for i := range m.data {
		m.data[i] = 0
	}
	return m
}

// SetIdentity overwrites a square matrix with the identity.
//
//spotfi:noalloc
func (m *Matrix) SetIdentity() {
	if m.rows != m.cols {
		panic("cmat: SetIdentity on non-square matrix")
	}
	for i := range m.data {
		m.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] = 1
	}
}

// Rows returns the number of rows.
//
//spotfi:noalloc
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
//
//spotfi:noalloc
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
//
//spotfi:noalloc
func (m *Matrix) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
//
//spotfi:noalloc
func (m *Matrix) Set(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// check panics if (i, j) is out of range. The message is a constant string
// on purpose: a fmt.Sprintf call here would push check past the inlining
// budget, and At/Set sit on the MUSIC hot path where the bounds check must
// inline away. The unsigned compare folds the negative and too-large cases
// into one branch per axis, the same shape the compiler emits for slices.
//
//spotfi:noalloc
func (m *Matrix) check(i, j int) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic("cmat: index out of range")
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []complex128 {
	if uint(i) >= uint(m.rows) {
		panic("cmat: row index out of range")
	}
	out := make([]complex128, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []complex128 {
	if uint(j) >= uint(m.cols) {
		panic("cmat: col index out of range")
	}
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol assigns column j from v, which must have Rows elements.
func (m *Matrix) SetCol(j int, v []complex128) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("cmat: SetCol got %d elements, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("cmat: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, mik := range mrow {
			if mik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range brow {
				orow[j] += mik * bkj
			}
		}
	}
	return out
}

// ConjTranspose returns the conjugate transpose mᴴ.
func (m *Matrix) ConjTranspose() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
	return out
}

// Gram returns m·mᴴ, the (rows×rows) Gram matrix used to form the CSI
// covariance. The result is Hermitian by construction (up to rounding),
// and the routine enforces exact Hermitian symmetry so it can be fed
// directly into EigHermitian.
func (m *Matrix) Gram() *Matrix {
	out := New(m.rows, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j := i; j < m.rows; j++ {
			rj := m.data[j*m.cols : (j+1)*m.cols]
			var sum complex128
			for k := range ri {
				sum += ri[k] * cmplx.Conj(rj[k])
			}
			if i == j {
				// Diagonal of a Gram matrix is real and non-negative.
				out.data[i*m.rows+i] = complex(real(sum), 0)
				continue
			}
			out.data[i*m.rows+j] = sum
			out.data[j*m.rows+i] = cmplx.Conj(sum)
		}
	}
	return out
}

// GramInto computes m·mᴴ into out, which must be rows×rows. Semantics
// match Gram (exact Hermitian symmetry enforced); no allocation.
//
//spotfi:noalloc
func (m *Matrix) GramInto(out *Matrix) *Matrix {
	if out.rows != m.rows || out.cols != m.rows {
		panic(fmt.Sprintf("cmat: GramInto got %dx%d output, want %dx%d", out.rows, out.cols, m.rows, m.rows))
	}
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j := i; j < m.rows; j++ {
			rj := m.data[j*m.cols : (j+1)*m.cols]
			var sum complex128
			for k := range ri {
				sum += ri[k] * cmplx.Conj(rj[k])
			}
			if i == j {
				// Diagonal of a Gram matrix is real and non-negative.
				out.data[i*m.rows+i] = complex(real(sum), 0)
				continue
			}
			out.data[i*m.rows+j] = sum
			out.data[j*m.rows+i] = cmplx.Conj(sum)
		}
	}
	return out
}

// isHermitianFast is IsHermitian with a cheap bit-exact prepass: matrices
// built by Gram/GramInto are exactly Hermitian, so the common case costs
// one equality compare per pair instead of a cmplx.Abs.
//
//spotfi:noalloc
func (m *Matrix) isHermitianFast(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i; j < m.cols; j++ {
			u, l := m.data[i*m.cols+j], m.data[j*m.cols+i]
			if u == cmplx.Conj(l) { //lint:allow floateq bit-exact fast path; inexact pairs fall through to the tolerance check
				continue
			}
			if cmplx.Abs(u-cmplx.Conj(l)) > tol {
				return false
			}
		}
	}
	return true
}

// Scale returns s·m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = s * v
	}
	return out
}

// Add returns m+b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic("cmat: Add dimension mismatch")
	}
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns m−b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic("cmat: Sub dimension mismatch")
	}
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []complex128) []complex128 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("cmat: MulVec got vector of length %d, want %d", len(v), m.cols))
	}
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum complex128
		for k, x := range v {
			sum += row[k] * x
		}
		out[i] = sum
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
//
//spotfi:noalloc
func (m *Matrix) FrobeniusNorm() float64 {
	var sum float64
	for _, v := range m.data {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(sum)
}

// Trace returns the trace of a square matrix.
func (m *Matrix) Trace() complex128 {
	if m.rows != m.cols {
		panic("cmat: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// IsHermitian reports whether m equals its conjugate transpose to within
// tol in absolute elementwise difference.
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i; j < m.cols; j++ {
			d := m.data[i*m.cols+j] - cmplx.Conj(m.data[j*m.cols+i])
			if cmplx.Abs(d) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			v := m.data[i*m.cols+j]
			fmt.Fprintf(&b, "(%8.4f%+8.4fi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
