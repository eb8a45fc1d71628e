package music

import (
	"fmt"
	"math"
	"math/cmplx"

	"spotfi/internal/cmat"
	"spotfi/internal/csi"
)

// Spectrum is an evaluated 2-D MUSIC pseudo-spectrum P(θ, τ).
type Spectrum struct {
	// Thetas are the AoA grid points in radians.
	Thetas []float64
	// Taus are the ToF grid points in seconds.
	Taus []float64
	// P[i][j] is the pseudo-spectrum at (Thetas[i], Taus[j]).
	P [][]float64
}

// Estimator runs SpotFi's joint AoA/ToF super-resolution on single-packet
// CSI matrices.
//
// Concurrency contract: an Estimator owns mutable workspace arenas (the
// smoothed-CSI matrix, the eigendecomposition scratch, the sweep's column
// ring), so it is single-goroutine — one goroutine per Estimator at a
// time. The expensive pure-geometry precomputation (grids and steering
// powers) lives in a shared read-only steeringTable obtained from the
// package steering cache, so constructing extra estimators for extra
// goroutines is cheap; callers that fan out across goroutines should keep
// a pool of estimators (see the localizer's sync.Pool).
//
//spotfi:arena
type Estimator struct {
	p   Params
	tab *steeringTable

	// thetas and taus alias the shared table's grids (read-only).
	thetas []float64
	taus   []float64

	// Workspace arenas, reused across calls. Everything below is reset or
	// overwritten by each estimate; nothing escapes to callers.
	smooth *cmat.Matrix
	gram   *cmat.Matrix
	eigWS  cmat.TopEigenWorkspace

	// vecs/cut are the signal eigenvectors of the current packet,
	// borrowed from eigWS between eigendecomposition and sweep.
	vecs [][]complex128
	cut  int

	// w[k*subAnt+a] = v_k[a-th block]ᴴ·o(τ) and qp[c] = q_ab (a<b) for
	// the τ-column being evaluated.
	w  []complex128
	qp []complex128

	// ring holds the clamped MUSIC denominators of the last three
	// τ-columns: column j lives at ring[(j%3)·nt : (j%3+1)·nt].
	ring []float64

	// Peak-finding scratch.
	scratch []PathEstimate
}

// NewEstimator validates p and binds the shared precomputed steering
// table, allocating the estimator-owned workspace arenas.
func NewEstimator(p Params) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tab := lookupSteeringTable(p)
	e := &Estimator{
		p:       p,
		tab:     tab,
		thetas:  tab.thetas,
		taus:    tab.taus,
		w:       make([]complex128, p.MaxPaths*tab.subAnt),
		qp:      make([]complex128, tab.nPair),
		ring:    make([]float64, 3*len(tab.thetas)),
		scratch: make([]PathEstimate, 0, 32),
	}
	return e, nil
}

// Params returns the estimator configuration.
func (e *Estimator) Params() Params { return e.p }

// EstimatePaths returns the multipath (AoA, ToF) estimates for one CSI
// matrix: Algorithm 2 lines 4–7. Estimates are sorted by descending
// spectrum power. The number of returned paths is the estimated signal
// subspace dimension (≤ MaxPaths). The returned slice is freshly
// allocated and owned by the caller.
func (e *Estimator) EstimatePaths(c *csi.Matrix) ([]PathEstimate, error) {
	paths, _, err := e.EstimatePathsDiag(c)
	return paths, err
}

// EstimatePathsDiag is EstimatePaths plus per-packet DSP diagnostics for
// burst tracing. The Diag is valid only when err is nil.
func (e *Estimator) EstimatePathsDiag(c *csi.Matrix) ([]PathEstimate, Diag, error) {
	dim, eig, err := e.prepare(c)
	if err != nil {
		return nil, Diag{}, err
	}
	peaks := e.sweep(dim, nil)
	d := Diag{
		EigenSweeps: eig.Sweeps,
		SignalDim:   dim,
		EigenGapDB:  eigenGapDB(eig.Values, dim),
		GridTheta:   len(e.thetas),
		GridTau:     len(e.taus),
		Peaks:       len(peaks),
		CellsSwept:  len(e.thetas) * len(e.taus),
	}
	out := make([]PathEstimate, len(peaks))
	copy(out, peaks)
	return out, d, nil
}

// Spectrum evaluates the full (dense) 2-D pseudo-spectrum for one CSI
// matrix. It is what CUPID-style max-power selection and diagnostics
// consume. The returned spectrum is a fresh copy, unaffected by later
// estimator calls.
func (e *Estimator) Spectrum(c *csi.Matrix) (*Spectrum, error) {
	dim, _, err := e.prepare(c)
	if err != nil {
		return nil, err
	}
	nt, nu := len(e.thetas), len(e.taus)
	flat := make([]float64, nt*nu)
	e.sweep(dim, flat)
	spec := &Spectrum{Thetas: e.thetas, Taus: e.taus, P: make([][]float64, nt)}
	for i := range spec.P {
		spec.P[i] = flat[i*nu : (i+1)*nu]
	}
	return spec, nil //lint:allow arenaescape Thetas/Taus alias the immutable shared steering table, safe to hold
}

// prepare runs the front half of the pipeline — smoothing, covariance,
// eigendecomposition — and leaves the signal eigenvectors in vecs/cut for
// the sweep.
//
//spotfi:noalloc
func (e *Estimator) prepare(c *csi.Matrix) (int, *cmat.EigenDecomposition, error) {
	if err := c.Validate(); err != nil { //lint:allow noalloc rejection path; a malformed packet never reaches the sweep twice
		return 0, nil, err
	}
	if c.Antennas() != e.p.Array.Antennas || c.Subcarriers() != e.p.Band.Subcarriers {
		return 0, nil, fmt.Errorf("music: CSI is %dx%d, estimator expects %dx%d", //lint:allow noalloc rejection path; a mis-sized packet never reaches the sweep twice
			c.Antennas(), c.Subcarriers(), e.p.Array.Antennas, e.p.Band.Subcarriers)
	}
	e.smooth = SmoothCSIInto(c, e.p.SubarrayAntennas, e.p.SubarraySubcarriers, e.smooth)
	e.gram = cmat.Reshape(e.gram, e.smooth.Rows(), e.smooth.Rows())
	e.smooth.GramInto(e.gram)
	// Only the top MaxPaths+1 eigenpairs matter: MaxPaths caps the signal
	// dimension, and one extra value below the cut supplies the
	// signal/noise threshold split and the eigen-gap diagnostic. The
	// sweep never touches noise eigenvectors — columnQ projects through
	// the signal subspace complement.
	eig, err := cmat.TopEigenInto(e.gram, e.p.MaxPaths+1, e.p.EigenThreshold, &e.eigWS)
	if err != nil {
		return 0, nil, fmt.Errorf("music: covariance eigendecomposition: %w", err) //lint:allow noalloc corrupt-covariance path, cold by construction
	}
	dim := eig.SignalDimension(e.p.EigenThreshold, e.p.MaxPaths)
	e.cut = eig.SignalCut(e.p.EigenThreshold, e.p.MaxPaths)
	e.vecs = eig.Vectors[:e.cut]
	return dim, eig, nil
}

// undercut is the relative margin by which a neighbour's denominator must
// fall below a cell's to rule the cell out as a peak without a division:
// d_n < d·(1−2⁻⁴⁶), even after the product's rounding, gives
// fl(1/d_n) > fl(1/d), so the strict peak rule would reject the cell too.
const undercut = 1 - 0x1p-46

// sweep is the dense MUSIC sweep, streamed over the τ-columns in order.
// Each column's cells hold only the clamped denominator of P = 1/d in a
// three-column ring; once column j+1 exists, the interior cells of
// column j that no neighbour undercuts become candidates, confirmed with
// the strict 8-neighbour rule on 1/d and refined from the ring. The
// returned peaks — the top count by power, deduplicated — alias the
// estimator's scratch arena. When spec is non-nil it receives P for
// every cell, flattened row-major by θ.
//
// Grid-edge cells are never peaks: a maximum at the ±90° AoA edge (array
// endfire, where a ULA has no resolution) or at the ToF search boundary
// is a truncation artifact, not a resolvable path, and its
// packet-to-packet repeatability would otherwise fabricate a spuriously
// tight cluster.
//
//spotfi:noalloc
func (e *Estimator) sweep(count int, spec []float64) []PathEstimate {
	nu := len(e.taus)
	peaks := e.scratch[:0]
	for j := 0; j < nu; j++ {
		col := e.ringCol(j)
		e.column(j, col)
		if spec != nil {
			for i, d := range col {
				spec[i*nu+j] = 1 / d
			}
		}
		if j >= 2 {
			peaks = e.columnPeaks(peaks, j-1)
		}
	}
	e.scratch = peaks[:0]
	rTheta, rTau := e.p.dedupeRadii()
	return selectPeaks(peaks, count, rTheta, rTau)
}

// ringCol returns column j's slot in the denominator ring.
//
//spotfi:noalloc
func (e *Estimator) ringCol(j int) []float64 {
	nt := len(e.thetas)
	s := j % 3
	return e.ring[s*nt : (s+1)*nt]
}

// column writes the clamped denominators of τ-column j into col: the
// Kronecker decomposition of Eq. 7 reduces each cell to nPair complex
// multiplies of the column's block forms against the per-theta antenna
// pair products.
//
//spotfi:noalloc
func (e *Estimator) column(j int, col []float64) {
	qd := e.columnQ(j)
	qp, pair := e.qp, e.tab.pair
	if len(qp) == 1 {
		// One antenna pair, the paper's 2-antenna window: the same
		// arithmetic without the per-cell pair loop. On a 2-vCPU VM a
		// single loop for every pair count, with the pair table cell-major
		// or transposed, cost about 7% more batch40 CPU per fix.
		q := qp[0]
		for i, p := range pair[:len(col)] {
			var cross float64
			cross += real(p)*real(q) - imag(p)*imag(q)
			col[i] = clampDenom(qd + 2*cross)
		}
		return
	}
	nPair := len(qp)
	for i := range col {
		pr := pair[i*nPair : (i+1)*nPair]
		var cross float64
		for c, qc := range qp {
			cross += real(pr[c])*real(qc) - imag(pr[c])*imag(qc)
		}
		col[i] = clampDenom(qd + 2*cross)
	}
}

// clampDenom floors a MUSIC denominator at 1e-18, so P = 1/d stays finite
// where the steering vector lies in the signal subspace.
//
//spotfi:noalloc
func clampDenom(d float64) float64 {
	if d < 1e-18 {
		return 1e-18
	}
	return d
}

// columnPeaks appends the refined peaks of interior τ-column j, whose
// neighbours j−1 and j+1 are in the ring.
//
//spotfi:noalloc
func (e *Estimator) columnPeaks(peaks []PathEstimate, j int) []PathEstimate {
	l, m, r := e.ringCol(j-1), e.ringCol(j), e.ringCol(j+1)
	for i := 1; i < len(m)-1; i++ {
		t := m[i] * undercut
		if m[i-1] < t || m[i+1] < t ||
			l[i-1] < t || l[i] < t || l[i+1] < t ||
			r[i-1] < t || r[i] < t || r[i+1] < t {
			continue
		}
		v := 1 / m[i]
		if 1/m[i-1] > v || 1/m[i+1] > v ||
			1/l[i-1] > v || 1/l[i] > v || 1/l[i+1] > v ||
			1/r[i-1] > v || 1/r[i] > v || 1/r[i+1] > v {
			continue
		}
		theta := refineAxis(e.thetas, i, func(k int) float64 { return 1 / m[k] })
		tau := refineAxis(e.taus, j, func(k int) float64 { return 1 / e.ringCol(k)[i] })
		peaks = append(peaks, PathEstimate{AoA: theta, ToF: tau, Power: v})
	}
	return peaks
}

// columnQ computes the block quadratic forms of τ-column j — the diagonal
// sum Σ_a q_aa, returned, and the off-diagonal q_ab for a<b, left in qp.
// Rather than materializing the noise projector E_N·E_Nᴴ, it uses the
// complement identity P_N = I − Σ_k v_k·v_kᴴ over the few signal
// eigenvectors: q_ab = δ_ab·‖o‖² − Σ_k conj(w_ka)·w_kb with
// w_ka = v_k[block a]ᴴ·o(τ_j).
//
//spotfi:noalloc
func (e *Estimator) columnQ(j int) float64 {
	subAnt, subSub := e.tab.subAnt, e.tab.subSub
	o := e.tab.omega[j*subSub : (j+1)*subSub]
	w := e.w[:e.cut*subAnt]
	for k, v := range e.vecs {
		for a := 0; a < subAnt; a++ {
			blk := v[a*subSub : (a+1)*subSub]
			var sum complex128
			for s, os := range o {
				sum += cmplx.Conj(blk[s]) * os
			}
			w[k*subAnt+a] = sum
		}
	}
	qd := float64(subAnt) * e.tab.omegaNorm[j]
	for _, wv := range w {
		qd -= real(wv)*real(wv) + imag(wv)*imag(wv)
	}
	c := 0
	for a := 0; a < subAnt; a++ {
		for b := a + 1; b < subAnt; b++ {
			var sum complex128
			for k := 0; k < e.cut; k++ {
				sum += cmplx.Conj(w[k*subAnt+a]) * w[k*subAnt+b]
			}
			e.qp[c] = -sum
			c++
		}
	}
	return qd
}

// selectPeaks moves to the front of peaks, and returns, the first count
// peaks in canonical order (peakBefore) that are not within both physical
// merge radii of an earlier kept one — plateaus produce runs of
// near-equal "peaks". It selects rather than sorts: a flat spectrum makes
// every interior cell a candidate, and only the kept peaks and their
// duplicates are ever ordered. Because the order is total, the result is
// a pure function of the candidate set, not of the order the sweep found
// it in.
//
//spotfi:noalloc
func selectPeaks(peaks []PathEstimate, count int, rTheta, rTau float64) []PathEstimate {
	kept := 0
	for next := 0; next < len(peaks) && kept < count; next++ {
		best := next
		for k := next + 1; k < len(peaks); k++ {
			if peakBefore(peaks[k], peaks[best]) {
				best = k
			}
		}
		p := peaks[best]
		peaks[best] = peaks[next]
		dup := false
		for _, q := range peaks[:kept] {
			if math.Abs(p.AoA-q.AoA) <= rTheta && math.Abs(p.ToF-q.ToF) <= rTau {
				dup = true
				break
			}
		}
		if !dup {
			peaks[kept] = p
			kept++
		}
	}
	return peaks[:kept]
}

// peakBefore is the canonical peak order: descending power, ties broken
// by ascending AoA then ToF.
//
//spotfi:noalloc
func peakBefore(a, b PathEstimate) bool {
	if a.Power > b.Power {
		return true
	}
	if a.Power < b.Power {
		return false
	}
	if a.AoA < b.AoA {
		return true
	}
	if a.AoA > b.AoA {
		return false
	}
	return a.ToF < b.ToF
}

// gridPoints returns the inclusive grid start, start+step, …, stop built
// by index (start + i·step) rather than by accumulation: repeated `x +=
// step` drifts by an ulp per iteration, so whether the endpoint survives
// the loop bound — and hence the grid length — depended on the step size.
// The index form keeps length and endpoints exact for any step. A half-ulp
// slack on the point count absorbs ranges like π/(π/180) that land within
// rounding of an integer.
func gridPoints(start, stop, step float64) []float64 {
	n := int(math.Floor((stop-start)/step+1e-9)) + 1
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// refineAxis fits a parabola through the peak sample and its two axis
// neighbors and returns the interpolated abscissa of the maximum. Indices
// outside the grid are clamped; boundary indices return the grid point
// itself (no neighbor to fit through); the refined value never leaves
// [grid[0], grid[len-1]].
//
//spotfi:noalloc
func refineAxis(grid []float64, idx int, val func(int) float64) float64 {
	if len(grid) == 0 {
		return 0
	}
	if idx < 0 {
		idx = 0
	}
	if idx > len(grid)-1 {
		idx = len(grid) - 1
	}
	if idx == 0 || idx == len(grid)-1 {
		return grid[idx]
	}
	ym, y0, yp := val(idx-1), val(idx), val(idx+1)
	den := ym - 2*y0 + yp
	if den >= 0 || math.Abs(den) < 1e-30 {
		return grid[idx]
	}
	delta := 0.5 * (ym - yp) / den
	if delta > 0.5 {
		delta = 0.5
	} else if delta < -0.5 {
		delta = -0.5
	}
	step := grid[1] - grid[0]
	x := grid[idx] + delta*step
	if x < grid[0] {
		x = grid[0]
	} else if x > grid[len(grid)-1] {
		x = grid[len(grid)-1]
	}
	return x
}
