package cmat

import (
	"errors"
	"math"
)

// ErrNotFinite is returned by TopEigenInto when the input holds a NaN or
// an infinity.
var ErrNotFinite = errors.New("cmat: matrix has a non-finite entry")

// TopEigenWorkspace owns the scratch of TopEigenInto: the scaled working
// copy of the input, which the tridiagonal reduction overwrites with its
// reflectors, the real tridiagonal and its eigenvalues, the inverse
// iteration's factorization and vectors, and the result storage.
// Single-goroutine; the zero value is ready to use.
//
//spotfi:arena
type TopEigenWorkspace struct {
	h        []complex128 // n×n, row i holds column i of the lower triangle, then reflector i
	tau      []complex128 // reflector scalars
	p        []complex128 // reduction scratch
	d, e     []float64    // the real tridiagonal: diagonal and off-diagonal
	w, e2    []float64    // QL working copies: eigenvalues, squared off-diagonal
	order    []int        // eigenvalue indices by descending value
	lu       triLU        // factorization of T − λI for inverse iteration
	z        []float64    // k×n real tridiagonal eigenvectors
	res      EigenDecomposition
	vecArena []complex128
}

// TopEigenInto computes the k dominant eigenpairs of the Hermitian matrix
// a by a direct solve, reusing ws's arenas. The returned decomposition
// holds min(k, n) Values and Vectors in descending order (at least one);
// its storage is owned by ws and overwritten by the next call. Sweeps
// counts the QL iterations of the eigenvalue step.
//
// The solve scales a by a power of two so that its largest component
// lies in [½, 1): the reduction then cannot overflow, even for entries
// near 1e±300, and the scaling itself is exact. It reduces the lower
// triangle to a real symmetric tridiagonal T with Householder reflectors
// (each reflector also absorbs the phase of its subdiagonal entry, as
// LAPACK zhetrd does), finds every eigenvalue of T by square-root-free
// implicit QL (LAPACK dsterf), and computes the eigenvectors of the top
// k by inverse iteration on T (LAPACK dstein: eigenvalues closer than
// 10⁻³·‖T‖₁ form a cluster, and each vector is reorthogonalized against
// the earlier vectors of its cluster), back-transformed through the
// reflectors. Every pair is accurate to working precision relative to
// ‖a‖, so the k vectors are orthonormal even when eigenvalues repeat.
//
// A matrix with no normal-range entry (zero, or an underflowed
// covariance whose entries are all subnormal) has the zero spectrum and
// gets the canonical basis. A non-finite entry returns ErrNotFinite, and
// one that breaks Hermitian symmetry by more than 10⁻⁹ of the largest
// component returns ErrNotHermitian.
//
// The solve is deterministic and carries no state across calls: the
// inverse iteration's pseudo-random start vectors restart from a fixed
// seed every call.
//
//spotfi:noalloc
func TopEigenInto(a *Matrix, k int, ws *TopEigenWorkspace) (*EigenDecomposition, error) {
	n := a.rows
	if a.cols != n {
		return nil, ErrNotHermitian
	}
	k = max(1, min(k, n))
	// x − x is 0 for finite x and NaN otherwise, so one sum flags every
	// non-finite entry without overflowing on large finite ones.
	var amax, nonFinite float64
	for _, v := range a.data {
		re, im := real(v), imag(v)
		nonFinite += (re - re) + (im - im)
		if x := math.Abs(re); x > amax {
			amax = x
		}
		if x := math.Abs(im); x > amax {
			amax = x
		}
	}
	if nonFinite != 0 {
		return nil, ErrNotFinite
	}
	if amax < 0x1p-1022 {
		d := ws.prepare(n, k)
		for i := range d.Values {
			d.Values[i] = 0
		}
		for i, vec := range d.Vectors {
			for j := range vec {
				vec[j] = 0
			}
			vec[i] = 1
		}
		return d, nil //lint:allow arenaescape documented borrow: the decomposition views ws storage until the next call
	}
	if !a.isHermitianFast(1e-9 * amax) {
		return nil, ErrNotHermitian
	}
	_, exp := math.Frexp(amax)
	ws.grow(n, k)
	scale := complex(math.Ldexp(1, -exp), 0)
	for i := 0; i < n; i++ {
		row := ws.h[i*n : (i+1)*n]
		for j := i; j < n; j++ {
			row[j] = a.data[j*n+i] * scale
		}
	}
	ws.tridiagonalize(n)

	copy(ws.w, ws.d)
	for i, v := range ws.e[:n-1] {
		ws.e2[i] = v * v
	}
	sweeps, ok := tridiagEigenvalues(ws.w, ws.e2)
	if !ok {
		return nil, ErrNoConvergence
	}
	order := ws.order
	for i := range order {
		order[i] = i
	}
	// Insertion sort, descending and stable: allocation-free, and n is
	// the covariance dimension (30 for MUSIC).
	for i := 1; i < n; i++ {
		cur := order[i]
		j := i - 1
		for j >= 0 && ws.w[order[j]] < ws.w[cur] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = cur
	}

	d := ws.prepare(n, k)
	for j := 0; j < k; j++ {
		d.Values[j] = ws.w[order[j]]
	}
	ws.inverseIteration(d.Values, n)
	for j, vec := range d.Vectors {
		for r, x := range ws.z[j*n : (j+1)*n] {
			vec[r] = complex(x, 0)
		}
	}
	ws.backTransform(d.Vectors)
	for j, vec := range d.Vectors {
		Normalize(vec)
		d.Values[j] = math.Ldexp(d.Values[j], exp)
	}
	d.Sweeps = sweeps
	return d, nil //lint:allow arenaescape documented borrow: the decomposition views ws storage until the next call
}

// grow sizes the solver scratch for an n×n input and k vectors.
//
//spotfi:noalloc
func (ws *TopEigenWorkspace) grow(n, k int) {
	if cap(ws.h) < n*n {
		ws.h = make([]complex128, n*n) //lint:allow noalloc first-call arena growth, cold by construction
		ws.tau = make([]complex128, n) //lint:allow noalloc first-call arena growth, cold by construction
		ws.p = make([]complex128, n)   //lint:allow noalloc first-call arena growth, cold by construction
		ws.d = make([]float64, n)      //lint:allow noalloc first-call arena growth, cold by construction
		ws.e = make([]float64, n)      //lint:allow noalloc first-call arena growth, cold by construction
		ws.w = make([]float64, n)      //lint:allow noalloc first-call arena growth, cold by construction
		ws.e2 = make([]float64, n)     //lint:allow noalloc first-call arena growth, cold by construction
		ws.order = make([]int, n)      //lint:allow noalloc first-call arena growth, cold by construction
		ws.lu.grow(n)
	}
	if cap(ws.z) < n*k {
		ws.z = make([]float64, n*k) //lint:allow noalloc first-call arena growth, cold by construction
	}
	ws.h, ws.tau, ws.p = ws.h[:n*n], ws.tau[:n], ws.p[:n]
	ws.d, ws.e, ws.w, ws.e2, ws.order = ws.d[:n], ws.e[:n], ws.w[:n], ws.e2[:n], ws.order[:n]
	ws.z = ws.z[:n*k]
}

// prepare sizes the workspace result storage for k eigenpairs of length n.
//
//spotfi:noalloc
func (ws *TopEigenWorkspace) prepare(n, k int) *EigenDecomposition {
	if cap(ws.vecArena) < n*k {
		ws.vecArena = make([]complex128, n*k) //lint:allow noalloc first-call arena growth, cold by construction
	}
	if cap(ws.res.Values) < k {
		ws.res.Values = make([]float64, k) //lint:allow noalloc first-call arena growth, cold by construction
		ws.res.Vectors = make([][]complex128, k)
	}
	ws.vecArena = ws.vecArena[:n*k]
	ws.res.Values = ws.res.Values[:k]
	ws.res.Vectors = ws.res.Vectors[:k]
	for i := 0; i < k; i++ {
		ws.res.Vectors[i] = ws.vecArena[i*n : (i+1)*n]
	}
	ws.res.Sweeps = 0
	return &ws.res
}
