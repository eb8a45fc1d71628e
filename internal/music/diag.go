package music

import "math"

// Diag carries per-packet DSP diagnostics from one estimator run — the
// intermediate quantities (eigensolver iteration count, signal/noise eigenvalue
// separation, grid extent, peak yield) that burst traces attach to the
// estimate span so a bad localization can be attributed to its stage.
type Diag struct {
	// EigenSweeps is the iteration count of the covariance eigensolver.
	// For MUSIC it counts the implicit QL iterations cmat.TopEigenInto's
	// tridiagonal eigenvalue step ran over all of the covariance's
	// eigenvalues (about 52 for a 30×30 noisy multipath covariance, 0
	// for a zero one); for ESPRIT it counts the Jacobi sweeps on the
	// antenna covariance.
	EigenSweeps int
	// SignalDim is the estimated signal-subspace dimension (number of
	// resolvable paths, Algorithm 2 line 5).
	SignalDim int
	// EigenGapDB is the ratio, in dB, between the weakest signal
	// eigenvalue and the strongest noise eigenvalue. A small gap means
	// the subspace split — and hence every downstream estimate — is
	// fragile.
	EigenGapDB float64
	// GridTheta and GridTau are the MUSIC search-grid extents (zero for
	// the search-free ESPRIT path).
	GridTheta, GridTau int
	// Peaks is the number of spectrum peaks found before deduplication
	// and truncation to the signal dimension: interior cells no
	// neighbour's P exceeds. A plateaued spectrum makes it large. Zero
	// for the search-free ESPRIT path.
	Peaks int
	// CellsSwept is the number of MUSIC cell denominators the sweep
	// evaluated. Each interior τ-column evaluates its candidate rows and
	// their θ-neighbours in itself and both neighbouring columns: about
	// 2,400 on noisy multipath for the default grid's 36,381 cells, and
	// up to three per cell when no row can be ruled out. Zero for the
	// search-free ESPRIT path.
	CellsSwept int
}

// eigenGapDB computes 10·log10(λ[dim−1]/λ[dim]) — the signal/noise
// eigenvalue gap — returning 0 when the split is degenerate (no noise
// eigenvalue, or non-positive eigenvalues).
func eigenGapDB(values []float64, dim int) float64 {
	if dim <= 0 || dim >= len(values) {
		return 0
	}
	sig, noise := values[dim-1], values[dim]
	if sig <= 0 || noise <= 0 {
		return 0
	}
	gap := 10 * math.Log10(sig/noise)
	if math.IsInf(gap, 0) || math.IsNaN(gap) {
		return 0
	}
	return gap
}
