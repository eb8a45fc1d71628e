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
// smoothed-CSI matrix, the eigendecomposition scratch, the sweep's
// column forms), so it is single-goroutine — one goroutine per Estimator
// at a time. The expensive pure-geometry precomputation (grids and steering
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

	// w[k*subAnt+a] = v_k[a-th block]ᴴ·o(τ) for the τ-column being
	// formed.
	w []complex128
	// qd[j%3] and qp[(j%3)·nPair:] hold the block forms of the last
	// three τ-columns: Σ_a q_aa and q_ab (a<b) of column j.
	qd [3]float64
	qp []complex128

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
		qp:      make([]complex128, 3*tab.nPair),
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
	peaks, found, cells := e.sweep(dim)
	d := Diag{
		EigenSweeps: eig.Sweeps,
		SignalDim:   dim,
		EigenGapDB:  eigenGapDB(eig.Values, dim),
		GridTheta:   len(e.thetas),
		GridTau:     len(e.taus),
		Peaks:       found,
		CellsSwept:  cells,
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
	if _, _, err := e.prepare(c); err != nil {
		return nil, err
	}
	nt, nu := len(e.thetas), len(e.taus)
	flat := make([]float64, nt*nu)
	qp := e.qp[:e.tab.nPair]
	for j := 0; j < nu; j++ {
		qd := e.columnQ(j, qp)
		for i := 0; i < nt; i++ {
			flat[i*nu+j] = 1 / e.tab.cellDenom(i, qd, qp)
		}
	}
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

// sweep finds the peaks of the MUSIC pseudo-spectrum P = 1/d, streamed
// over the τ-columns in order. Only the block forms of the last three
// columns are kept; once column j+1's are formed, the rows of column j that
// candidateRows cannot rule out are tested with isPeak on their 3×3
// neighbourhood, computed on demand, and the peaks refined from it. It
// returns the top count peaks by power, deduplicated (aliasing the
// estimator's scratch arena), the number of peaks found before that
// selection, and the number of cell denominators evaluated.
//
// Grid-edge cells are never peaks: a maximum at the ±90° AoA edge (array
// endfire, where a ULA has no resolution) or at the ToF search boundary
// is a truncation artifact, not a resolvable path, and its
// packet-to-packet repeatability would otherwise fabricate a spuriously
// tight cluster.
//
//spotfi:noalloc
func (e *Estimator) sweep(count int) (peaks []PathEstimate, found, cells int) {
	peaks = e.scratch[:0]
	var spans [2]rowSpan
	for j := range e.taus {
		e.qd[j%3] = e.columnQ(j, e.forms(j))
		if j < 2 {
			continue
		}
		c := j - 1
		for _, sp := range e.tab.candidateRows(e.qd[c%3], e.forms(c), spans[:0]) {
			var n int
			peaks, n = e.searchRows(peaks, c, sp)
			cells += n
		}
	}
	e.scratch = peaks[:0]
	rTheta, rTau := e.p.dedupeRadii()
	return selectPeaks(peaks, count, rTheta, rTau), len(peaks), cells
}

// forms returns column j's slot for its off-diagonal block forms.
//
//spotfi:noalloc
func (e *Estimator) forms(j int) []complex128 {
	n := e.tab.nPair
	s := j % 3
	return e.qp[s*n : (s+1)*n]
}

// searchRows appends the refined peaks among rows sp.lo…sp.hi of interior
// τ-column j, whose neighbours' forms are in the estimator, and returns
// the number of denominators it evaluated. A three-row window slides
// down the rows, so each cell of rows sp.lo−1…sp.hi+1 in columns j−1, j
// and j+1 is evaluated once.
//
//spotfi:noalloc
func (e *Estimator) searchRows(peaks []PathEstimate, j int, sp rowSpan) ([]PathEstimate, int) {
	var qd [3]float64
	var qp [3][]complex128
	for b := range qd {
		k := j - 1 + b
		qd[b], qp[b] = e.qd[k%3], e.forms(k)
	}
	// win[a][b] is the denominator of row r−2+a in column j−1+b.
	var win [3][3]float64
	for r := sp.lo - 1; r <= sp.hi+1; r++ {
		win[0], win[1] = win[1], win[2]
		for b := range win[2] {
			win[2][b] = e.tab.cellDenom(r, qd[b], qp[b])
		}
		i := r - 1
		if i < sp.lo || !isPeak(&win) {
			continue
		}
		theta := refineAxis(e.thetas, i, func(k int) float64 { return 1 / win[k-i+1][1] })
		tau := refineAxis(e.taus, j, func(k int) float64 { return 1 / win[1][k-j+1] })
		peaks = append(peaks, PathEstimate{AoA: theta, ToF: tau, Power: 1 / win[1][1]})
	}
	return peaks, 3 * (sp.hi - sp.lo + 3)
}

// isPeak reports whether the centre of a 3×3 block of clamped
// denominators is a peak of P = 1/d: no neighbour's 1/d exceeds the
// centre's. A neighbour that undercuts the centre by the margin rules it
// out without a division; the survivors are confirmed on 1/d. The centre
// never rules itself out, so the loops need not skip it.
//
//spotfi:noalloc
func isPeak(n *[3][3]float64) bool {
	t := n[1][1] * undercut
	for _, row := range n {
		for _, d := range row {
			if d < t {
				return false
			}
		}
	}
	v := 1 / n[1][1]
	for _, row := range n {
		for _, d := range row {
			if 1/d > v {
				return false
			}
		}
	}
	return true
}

// cellDenom returns the clamped MUSIC denominator of θ row i in the
// τ-column whose block forms are qd and qp: the Kronecker decomposition
// of Eq. 7 reduces each cell to nPair complex multiplies of the column's
// forms against the row's antenna pair products. Every denominator the
// sweep and Spectrum use comes from here, so all of them round alike
// whether or not the compiler fuses the multiply-adds.
//
//spotfi:noalloc
func (t *steeringTable) cellDenom(i int, qd float64, qp []complex128) float64 {
	pr := t.pair[i*len(qp) : (i+1)*len(qp)]
	var cross float64
	for c, qc := range qp {
		cross += real(pr[c])*real(qc) - imag(pr[c])*imag(qc)
	}
	return clampDenom(qd + 2*cross)
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

// rowSpan is an inclusive range of θ rows.
type rowSpan struct{ lo, hi int }

// psiSlack widens the bracket around each computed shift of the minimum
// phase π − arg q. Its rounding is a few ulps of magnitudes up to 4π,
// far below the slack, so the bracket holds the exact shift.
const psiSlack = 0x1p-40

// candidateRows appends to dst, in ascending disjoint spans, the interior
// rows of a τ-column with block forms (qd, qp) that can be peaks: every
// row it leaves out has a θ-neighbour in the column that undercuts it by
// the prefilter's margin.
//
// With one antenna pair a cell is d_i = clamp(qd + 2·Re(p_i·q)) with
// p_i ≈ e^{jψ_i}. Before the clamp it lies within E = 2⁻⁴⁷·(|qd| + 2|q|)
// of qd + 2|q|·cos(ψ_i + arg q): the rounding of the cell's products and
// sums, of p_i and of ψ_i adds up to about 24 ulps of |qd| + 2|q|, and E
// allows 64. Between neighbours n and i with mid-phase μ the cosine form
// differs by −4|q|·sin(μ + arg q)·sin((ψ_i − ψ_n)/2), so a row whose
// neighbourhood [ψ_{i+1}, ψ_{i−1}] holds no 2π-shift of the minimum
// phase π − arg q has a neighbour lower by at least 4|q|·s_min². When
// that exceeds tol = 2E + 2⁻⁴⁵·(|qd| + 2|q|) — both cells' error plus the
// 2⁻⁴⁶ margin on d ≤ |qd| + 2|q| + E, with room for rounding — and the
// clamp cannot act, only the two or three rows bracketing each shift
// remain. Otherwise (the clamp could act, the bound is too small, a form
// is not finite, the pair count is not one, or the table has no ψ) every
// interior row does.
//
//spotfi:noalloc
func (t *steeringTable) candidateRows(qd float64, qp []complex128, dst []rowSpan) []rowSpan {
	last := len(t.thetas) - 2
	if last < 1 {
		return dst
	}
	if t.psi == nil || len(qp) != 1 {
		return append(dst, rowSpan{1, last})
	}
	q := qp[0]
	aq := cmplx.Abs(q)
	scale := math.Abs(qd) + 2*aq
	e := 0x1p-47 * scale
	tol := 2*e + 0x1p-45*scale
	// Written negated, the tests also fail on NaN forms, and on infinite
	// ones, whose E is infinite.
	if !(qd-2*aq-e > 1e-18) || !(4*aq*t.sMin2 > tol) {
		return append(dst, rowSpan{1, last})
	}
	// ψ lies in [−3π, π] and π − arg q in [0, 2π], so only the shifts by
	// 0, −2π and −4π can meet the table, in ascending row order. Row i
	// brackets shift s when ψ_{i+1} < s + slack and ψ_{i−1} > s − slack.
	psi := t.psi
	m := math.Pi - cmplx.Phase(q)
	prev := 0
	for k := 0; k < 3; k++ {
		s := m - 2*math.Pi*float64(k)
		if s-psiSlack >= psi[0] {
			continue
		}
		if s+psiSlack <= psi[len(psi)-1] {
			break
		}
		// a is the first row with ψ below s + slack and b the first at or
		// below s − slack: a binary search, then a short walk, since ψ
		// falls strictly with the row.
		a, n := 0, len(psi)
		for a < n {
			mid := int(uint(a+n) >> 1)
			if psi[mid] < s+psiSlack {
				n = mid
			} else {
				a = mid + 1
			}
		}
		b := a
		for b < len(psi) && psi[b] > s-psiSlack {
			b++
		}
		lo, hi := max(a-1, prev+1), min(b, last)
		if lo <= hi {
			dst = append(dst, rowSpan{lo, hi})
			prev = hi
		}
	}
	return dst
}

// columnQ computes the block quadratic forms of τ-column j — the diagonal
// sum Σ_a q_aa, returned, and the off-diagonal q_ab for a<b, written to
// qp. Rather than materializing the noise projector E_N·E_Nᴴ, it uses the
// complement identity P_N = I − Σ_k v_k·v_kᴴ over the few signal
// eigenvectors: q_ab = δ_ab·‖o‖² − Σ_k conj(w_ka)·w_kb with
// w_ka = v_k[block a]ᴴ·o(τ_j).
//
//spotfi:noalloc
func (e *Estimator) columnQ(j int, qp []complex128) float64 {
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
			qp[c] = -sum
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
