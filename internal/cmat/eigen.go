package cmat

import (
	"errors"
	"math"
	"math/cmplx"
)

// EigenDecomposition holds the spectral factorization A = V·diag(λ)·Vᴴ of a
// Hermitian matrix. Values are real (Hermitian matrices have real spectra)
// and sorted in descending order; Vectors[i] is the unit eigenvector paired
// with Values[i].
type EigenDecomposition struct {
	Values  []float64
	Vectors [][]complex128
	// Sweeps is the number of iterations the solver ran: full Jacobi
	// sweeps for EigHermitianInto, implicit QL iterations of the
	// tridiagonal eigenvalue step for TopEigenInto. A conditioning
	// diagnostic surfaced in burst traces.
	Sweeps int
}

// ErrNotHermitian is returned by EigHermitian when the input is not
// Hermitian to within a reasonable tolerance.
var ErrNotHermitian = errors.New("cmat: matrix is not Hermitian")

// ErrNoConvergence is returned when an iteration runs out of its budget:
// Jacobi fails to reduce the off-diagonal mass below tolerance within the
// sweep budget, or TopEigenInto's QL within 30 iterations per eigenvalue.
// For the matrix sizes SpotFi uses (≤ 32) this indicates corrupt input.
var ErrNoConvergence = errors.New("cmat: eigendecomposition did not converge")

const (
	jacobiMaxSweeps = 64
	jacobiTol       = 1e-13
)

// EigenWorkspace owns the scratch buffers one eigendecomposition needs, so
// a caller decomposing many same-sized matrices allocates nothing in
// steady state. A workspace is single-goroutine and carries no numerical
// state between calls; the zero value is ready to use.
//
//spotfi:arena
type EigenWorkspace struct {
	w, v     *Matrix
	d        EigenDecomposition
	vecArena []complex128
	idx      []int
	diag     []float64
}

// EigHermitian computes all eigenvalues and orthonormal eigenvectors of the
// Hermitian matrix a using the cyclic Jacobi method with complex rotations.
// The input is not modified. Eigenvalues are returned in descending order.
//
// The method applies unitary similarity transforms A ← GᴴAG that each zero
// one off-diagonal pair, cycling over all pairs until the off-diagonal
// Frobenius mass falls below jacobiTol relative to the initial norm. Jacobi
// is slower than TopEigenInto's tridiagonal solve but is simple and
// backward-stable, with small residuals ‖Av−λv‖; ESPRIT and the
// antenna-only baseline use it, and tests hold TopEigenInto to it.
func EigHermitian(a *Matrix) (*EigenDecomposition, error) {
	return EigHermitianInto(a, &EigenWorkspace{})
}

// EigHermitianInto is EigHermitian computing into ws: the returned
// decomposition and its Values/Vectors storage are owned by ws and are
// overwritten by the next call on the same workspace. Clone what must
// outlive it.
//
//spotfi:noalloc
func EigHermitianInto(a *Matrix, ws *EigenWorkspace) (*EigenDecomposition, error) {
	if a.rows != a.cols {
		return nil, ErrNotHermitian
	}
	scale := a.FrobeniusNorm()
	if scale == 0 {
		// Zero matrix: zero spectrum, canonical basis.
		return canonicalDecompositionInto(a.rows, ws), nil //lint:allow arenaescape documented borrow: the decomposition views ws storage until the next call
	}
	if !a.isHermitianFast(1e-9 * scale) {
		return nil, ErrNotHermitian
	}
	n := a.rows
	ws.w = Reshape(ws.w, n, n)
	w := ws.w
	copy(w.data, a.data)
	ws.v = Reshape(ws.v, n, n)
	v := ws.v
	v.SetIdentity()
	// Enforce exact symmetry so rounding in the caller cannot bias
	// rotations.
	for i := 0; i < n; i++ {
		w.data[i*n+i] = complex(real(w.data[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			avg := (w.data[i*n+j] + cmplx.Conj(w.data[j*n+i])) / 2
			w.data[i*n+j] = avg
			w.data[j*n+i] = cmplx.Conj(avg)
		}
	}

	// Pivots below skipThresh are left in place: even if every pair sits
	// exactly at the threshold the off-diagonal norm stays under
	// jacobiTol·scale/2, so the sweep-level convergence check still fires,
	// and converged regions of the matrix cost one comparison instead of
	// three O(n) update loops.
	skipThresh := jacobiTol * scale / float64(2*n)
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := offDiagonalNorm(w)
		if off <= jacobiTol*scale {
			d := collectEigenInto(w, v, ws)
			d.Sweeps = sweep
			return d, nil //lint:allow arenaescape documented borrow: the decomposition views ws storage until the next call
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if mag := cmplx.Abs(w.data[p*n+q]); mag > skipThresh {
					jacobiRotate(w, v, p, q)
				}
			}
		}
	}
	if offDiagonalNorm(w) <= 1e-8*scale {
		// Converged for every practical purpose; accept the result.
		d := collectEigenInto(w, v, ws)
		d.Sweeps = jacobiMaxSweeps
		return d, nil //lint:allow arenaescape documented borrow: the decomposition views ws storage until the next call
	}
	return nil, ErrNoConvergence
}

//spotfi:noalloc
func canonicalDecompositionInto(n int, ws *EigenWorkspace) *EigenDecomposition {
	d := ws.prepare(n)
	for i := range d.Values {
		d.Values[i] = 0
	}
	for i := range d.Vectors {
		vec := d.Vectors[i]
		for j := range vec {
			vec[j] = 0
		}
		vec[i] = 1
	}
	return d
}

// prepare sizes the workspace's result storage for an n×n decomposition:
// Values, idx, and n eigenvector slices viewing one backing arena.
//
//spotfi:noalloc
func (ws *EigenWorkspace) prepare(n int) *EigenDecomposition {
	if cap(ws.vecArena) < n*n {
		ws.vecArena = make([]complex128, n*n) //lint:allow noalloc first-call arena growth, cold by construction
		ws.d.Values = make([]float64, n)      //lint:allow noalloc first-call arena growth, cold by construction
		ws.d.Vectors = make([][]complex128, n)
		ws.idx = make([]int, n) //lint:allow noalloc first-call arena growth, cold by construction
		ws.diag = make([]float64, n)
	}
	ws.vecArena = ws.vecArena[:n*n]
	ws.d.Values = ws.d.Values[:n]
	ws.d.Vectors = ws.d.Vectors[:n]
	ws.idx = ws.idx[:n]
	ws.diag = ws.diag[:n]
	for i := 0; i < n; i++ {
		ws.d.Vectors[i] = ws.vecArena[i*n : (i+1)*n]
	}
	ws.d.Sweeps = 0
	return &ws.d
}

// jacobiRotate zeroes w[p][q] (and w[q][p]) with a complex Jacobi rotation,
// accumulating the transform into v.
//
//spotfi:noalloc
func jacobiRotate(w, v *Matrix, p, q int) {
	n := w.rows
	apq := w.data[p*n+q]
	mag := cmplx.Abs(apq)
	if mag == 0 {
		return
	}
	app := real(w.data[p*n+p])
	aqq := real(w.data[q*n+q])

	// Phase factor e^{iφ} of the pivot and the real rotation angle.
	phase := apq / complex(mag, 0)
	tau := (aqq - app) / (2 * mag)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	cs := complex(c, 0)
	sPhase := complex(s, 0) * phase                 // s·e^{iφ}
	sPhaseConj := complex(s, 0) * cmplx.Conj(phase) // s·e^{−iφ}

	// Columns p and q of W: W ← W·G.
	for k := 0; k < n; k++ {
		wkp := w.data[k*n+p]
		wkq := w.data[k*n+q]
		w.data[k*n+p] = cs*wkp - sPhaseConj*wkq
		w.data[k*n+q] = sPhase*wkp + cs*wkq
	}
	// Rows p and q of W: W ← Gᴴ·W.
	for k := 0; k < n; k++ {
		wpk := w.data[p*n+k]
		wqk := w.data[q*n+k]
		w.data[p*n+k] = cs*wpk - sPhase*wqk
		w.data[q*n+k] = sPhaseConj*wpk + cs*wqk
	}
	// Clean up rounding: the pivot pair is exactly zero and the diagonal
	// stays real.
	w.data[p*n+q] = 0
	w.data[q*n+p] = 0
	w.data[p*n+p] = complex(real(w.data[p*n+p]), 0)
	w.data[q*n+q] = complex(real(w.data[q*n+q]), 0)

	// Accumulate eigenvectors: V ← V·G.
	for k := 0; k < n; k++ {
		vkp := v.data[k*n+p]
		vkq := v.data[k*n+q]
		v.data[k*n+p] = cs*vkp - sPhaseConj*vkq
		v.data[k*n+q] = sPhase*vkp + cs*vkq
	}
}

//spotfi:noalloc
func offDiagonalNorm(m *Matrix) float64 {
	n := m.rows
	var sum float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := m.data[i*n+j]
			sum += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return math.Sqrt(sum)
}

// collectEigenInto sorts the converged diagonal of w into ws's result
// storage, copying the matching eigenvector columns of v into the
// workspace arena.
//
//spotfi:noalloc
func collectEigenInto(w, v *Matrix, ws *EigenWorkspace) *EigenDecomposition {
	n := w.rows
	d := ws.prepare(n)
	idx, diag := ws.idx, ws.diag
	for i := 0; i < n; i++ {
		idx[i] = i
		diag[i] = real(w.data[i*n+i])
	}
	// Insertion sort, descending by eigenvalue: allocation-free, unlike
	// sort.Slice's closure.
	for i := 1; i < n; i++ {
		cur := idx[i]
		key := diag[cur]
		j := i - 1
		for j >= 0 && diag[idx[j]] < key {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = cur
	}

	for rank, col := range idx {
		d.Values[rank] = diag[col]
		vec := d.Vectors[rank]
		for k := 0; k < n; k++ {
			vec[k] = v.data[k*n+col]
		}
		Normalize(vec)
	}
	return d
}

// SignalCut returns the index of the first eigenvector belonging to the
// noise subspace under MUSIC's threshold rule: the first eigenvalue below
// threshold·λmax, capped at maxSignal, and capped at n−1 so at least one
// noise vector always remains. Vectors[cut:] span the noise subspace;
// Vectors[:cut] span the signal subspace.
//
//spotfi:noalloc
func (d *EigenDecomposition) SignalCut(threshold float64, maxSignal int) int {
	n := len(d.Values)
	if n == 0 {
		return 0
	}
	maxVal := d.Values[0]
	cut := n // first index belonging to the noise subspace
	for i, v := range d.Values {
		if v < threshold*maxVal {
			cut = i
			break
		}
	}
	if cut > maxSignal {
		cut = maxSignal
	}
	if cut >= n {
		cut = n - 1 // keep at least one noise vector
	}
	return cut
}

// NoiseSubspace returns the eigenvectors whose eigenvalues fall below
// threshold·maxValue, i.e. the MUSIC noise subspace, as a matrix whose
// columns are those eigenvectors. maxSignal caps how many eigenvectors can
// be claimed by the signal subspace: at least (n − maxSignal) vectors are
// always returned so the projector never degenerates. It returns nil if
// every eigenvector is classified as signal.
func (d *EigenDecomposition) NoiseSubspace(threshold float64, maxSignal int) *Matrix {
	n := len(d.Values)
	if n == 0 {
		return nil
	}
	cut := d.SignalCut(threshold, maxSignal)
	if n-cut <= 0 {
		return nil
	}
	en := New(n, n-cut)
	for j := cut; j < n; j++ {
		en.SetCol(j-cut, d.Vectors[j])
	}
	return en
}

// SignalDimension returns the number of eigenvalues at or above
// threshold·maxValue, clamped to [1, maxSignal]. It estimates the number of
// resolvable propagation paths.
//
//spotfi:noalloc
func (d *EigenDecomposition) SignalDimension(threshold float64, maxSignal int) int {
	if len(d.Values) == 0 {
		return 0
	}
	maxVal := d.Values[0]
	dim := 0
	for _, v := range d.Values {
		if v >= threshold*maxVal {
			dim++
		}
	}
	if dim < 1 {
		dim = 1
	}
	if dim > maxSignal {
		dim = maxSignal
	}
	return dim
}
