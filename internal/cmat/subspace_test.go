package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randomHermitian returns a random n×n Hermitian PSD matrix with the given
// eigenvalues (descending), built as V·diag(λ)·Vᴴ from a random unitary V.
func spectrumHermitian(t *testing.T, rng *rand.Rand, lambdas []float64) *Matrix {
	t.Helper()
	n := len(lambdas)
	// Random full-rank matrix → orthonormal columns via Gram–Schmidt.
	v := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	for c := 0; c < n; c++ {
		for p := 0; p < c; p++ {
			var r complex128
			for row := 0; row < n; row++ {
				r += cmplx.Conj(v.At(row, p)) * v.At(row, c)
			}
			for row := 0; row < n; row++ {
				v.Set(row, c, v.At(row, c)-r*v.At(row, p))
			}
		}
		var norm float64
		for row := 0; row < n; row++ {
			norm += real(v.At(row, c))*real(v.At(row, c)) + imag(v.At(row, c))*imag(v.At(row, c))
		}
		inv := complex(1/math.Sqrt(norm), 0)
		for row := 0; row < n; row++ {
			v.Set(row, c, v.At(row, c)*inv)
		}
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum complex128
			for k := 0; k < n; k++ {
				sum += v.At(i, k) * complex(lambdas[k], 0) * cmplx.Conj(v.At(j, k))
			}
			a.Set(i, j, sum)
		}
	}
	return a
}

// gappedSpectrum mimics a MUSIC covariance: a few strong signal
// eigenvalues over a nearly degenerate noise cluster.
func gappedSpectrum(rng *rand.Rand, n, signal int) []float64 {
	out := make([]float64, n)
	for i := 0; i < signal; i++ {
		out[i] = 10 / float64(i+1)
	}
	for i := signal; i < n; i++ {
		// Cluster around 0.01·λ1 with a few-percent spread.
		out[i] = 0.1 * (1 + 0.05*rng.Float64())
	}
	// Keep descending order inside the cluster too.
	for i := signal + 1; i < n; i++ {
		if out[i] > out[i-1] {
			out[i], out[i-1] = out[i-1], out[i]
		}
	}
	return out
}

func TestTopEigenMatchesFullDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k, thresh = 20, 5, 0.015
	for trial := 0; trial < 10; trial++ {
		lambdas := gappedSpectrum(rng, n, 3)
		a := spectrumHermitian(t, rng, lambdas)
		full, err := EigHermitian(a)
		if err != nil {
			t.Fatalf("full: %v", err)
		}
		var ws TopEigenWorkspace
		top, err := TopEigenInto(a, k, &ws)
		if err != nil {
			t.Fatalf("top: %v", err)
		}
		if len(top.Values) != k || len(top.Vectors) != k {
			t.Fatalf("got %d values, %d vectors, want %d", len(top.Values), len(top.Vectors), k)
		}
		// Every value is exact to working precision, below the signal
		// threshold as well as above it.
		for i := 0; i < k; i++ {
			if math.Abs(top.Values[i]-full.Values[i]) > 1e-12*full.Values[0] {
				t.Errorf("trial %d value %d: top %.15g full %.15g", trial, i, top.Values[i], full.Values[i])
			}
		}
		// Above-threshold (signal) eigenvectors must match the full
		// decomposition up to phase: |⟨v_top, v_full⟩| ≈ 1. These
		// eigenvalues are well separated by construction.
		for i := 0; i < k && top.Values[i] >= thresh*top.Values[0]; i++ {
			dot := cmplx.Abs(Dot(top.Vectors[i], full.Vectors[i]))
			if math.Abs(dot-1) > 1e-10 {
				t.Errorf("trial %d vector %d: |<top,full>| = %.9f, want 1", trial, i, dot)
			}
		}
	}
}

func TestTopEigenResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, k = 30, 6
	lambdas := gappedSpectrum(rng, n, 4)
	a := spectrumHermitian(t, rng, lambdas)
	var ws TopEigenWorkspace
	d, err := TopEigenInto(a, k, &ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		var res float64
		for r := 0; r < n; r++ {
			var av complex128
			for c := 0; c < n; c++ {
				av += a.At(r, c) * d.Vectors[i][c]
			}
			diff := av - complex(d.Values[i], 0)*d.Vectors[i][r]
			res += real(diff)*real(diff) + imag(diff)*imag(diff)
		}
		// Every pair, signal or noise, is converged to working precision.
		if math.Sqrt(res) > 1e-12*d.Values[0] {
			t.Errorf("pair %d residual %.3g too large", i, math.Sqrt(res))
		}
	}
}

func TestTopEigenRankDeficient(t *testing.T) {
	// Rank-2 matrix, four pairs asked for: the two null-space pairs
	// (a repeated zero eigenvalue) must still come back finite and
	// orthonormal.
	rng := rand.New(rand.NewSource(3))
	const n, k = 12, 4
	lambdas := make([]float64, n)
	lambdas[0], lambdas[1] = 5, 2
	a := spectrumHermitian(t, rng, lambdas)
	var ws TopEigenWorkspace
	d, err := TopEigenInto(a, k, &ws)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Values[0]-5) > 1e-6 || math.Abs(d.Values[1]-2) > 1e-6 {
		t.Fatalf("top values %v, want [5 2 ...]", d.Values)
	}
	for i := 2; i < k; i++ {
		if math.Abs(d.Values[i]) > 1e-6 {
			t.Errorf("null-space value %d = %.3g, want ~0", i, d.Values[i])
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			dot := cmplx.Abs(Dot(d.Vectors[i], d.Vectors[j]))
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Errorf("|<v%d,v%d>| = %.9f, want %v", i, j, dot, want)
			}
		}
	}
}

func TestTopEigenZeroMatrixAndFullWidth(t *testing.T) {
	var ws TopEigenWorkspace
	d, err := TopEigenInto(New(6, 6), 3, &ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d.Values {
		if v != 0 {
			t.Fatalf("zero matrix spectrum %v", d.Values)
		}
	}

	// k ≥ n returns all n pairs.
	rng := rand.New(rand.NewSource(5))
	a := spectrumHermitian(t, rng, []float64{4, 3, 2, 1})
	full, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	d, err = TopEigenInto(a, 4, &ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Values) != 4 {
		t.Fatalf("full-width call returned %d values", len(d.Values))
	}
	for i := range d.Values {
		if math.Abs(d.Values[i]-full.Values[i]) > 1e-8*full.Values[0] {
			t.Errorf("value %d: %.9g vs %.9g", i, d.Values[i], full.Values[i])
		}
	}
}

func TestTopEigenRejectsNonHermitian(t *testing.T) {
	a := New(4, 4)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2) // not the conjugate
	var ws TopEigenWorkspace
	if _, err := TopEigenInto(a, 2, &ws); err == nil {
		t.Fatal("expected ErrNotHermitian")
	}
}

func TestTopEigenDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lambdas := gappedSpectrum(rng, 30, 3)
	a := spectrumHermitian(t, rng, lambdas)
	b := spectrumHermitian(t, rng, gappedSpectrum(rng, 30, 5))

	run := func() ([]float64, []complex128) {
		var ws TopEigenWorkspace
		// Interleave an unrelated decomposition to prove no cross-call
		// state leaks into the result for a.
		if _, err := TopEigenInto(b, 6, &ws); err != nil {
			t.Fatal(err)
		}
		d, err := TopEigenInto(a, 6, &ws)
		if err != nil {
			t.Fatal(err)
		}
		vals := append([]float64(nil), d.Values...)
		vec := append([]complex128(nil), d.Vectors[0]...)
		return vals, vec
	}
	v1, vec1 := run()
	v2, vec2 := run()
	for i := range v1 {
		if v1[i] != v2[i] { //lint:allow floateq determinism means bitwise identity
			t.Fatalf("value %d differs across identical runs: %v vs %v", i, v1[i], v2[i])
		}
	}
	for i := range vec1 {
		if vec1[i] != vec2[i] { //lint:allow floateq determinism means bitwise identity
			t.Fatalf("vector element %d differs across identical runs", i)
		}
	}
}

func TestTopEigenSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := spectrumHermitian(t, rng, gappedSpectrum(rng, 30, 3))
	var ws TopEigenWorkspace
	if _, err := TopEigenInto(a, 6, &ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := TopEigenInto(a, 6, &ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state TopEigenInto allocates %.1f times per call, want 0", allocs)
	}
}

// TestEigHermitianIntoWarmMatchesCold: a workspace that has already
// decomposed a nearby matrix (warm arenas) must give the same answer as a
// fresh one; nothing numerical carries between calls.
func TestEigHermitianIntoWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := spectrumHermitian(t, rng, gappedSpectrum(rng, 12, 3))
	var warm EigenWorkspace
	if _, err := EigHermitianInto(base, &warm); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		// Perturb, so the workspace last held a different matrix.
		next := base.Clone()
		for i := 0; i < next.Rows(); i++ {
			for j := i; j < next.Cols(); j++ {
				d := complex(0.01*rng.NormFloat64(), 0.01*rng.NormFloat64())
				if i == j {
					d = complex(real(d), 0)
				}
				next.Set(i, j, next.At(i, j)+d)
				if i != j {
					next.Set(j, i, cmplx.Conj(next.At(i, j)))
				}
			}
		}
		wd, err := EigHermitianInto(next, &warm)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := EigHermitian(next)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cd.Values {
			if math.Abs(wd.Values[i]-cd.Values[i]) > 1e-8*cd.Values[0] {
				t.Errorf("trial %d value %d: warm %.12g cold %.12g", trial, i, wd.Values[i], cd.Values[i])
			}
		}
		base = next
	}
}

func TestEigHermitianIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := spectrumHermitian(t, rng, gappedSpectrum(rng, 12, 3))
	var ws EigenWorkspace
	if _, err := EigHermitianInto(a, &ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EigHermitianInto(a, &ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state EigHermitianInto allocates %.1f times per call, want 0", allocs)
	}
}

// checkTopPairs requires d to hold the k dominant pairs of a: values
// within tol·λ₁ of the full Jacobi decomposition's, orthonormal vectors,
// residuals ‖A·v − λ·v‖ ≤ tol·λ₁, and each vector inside the span of the
// full decomposition's vectors for its (possibly repeated) eigenvalue.
func checkTopPairs(t *testing.T, a *Matrix, d *EigenDecomposition, k int, tol float64) {
	t.Helper()
	full, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows()
	scale := math.Abs(full.Values[0])
	if len(d.Values) != k || len(d.Vectors) != k {
		t.Fatalf("got %d values, %d vectors, want %d", len(d.Values), len(d.Vectors), k)
	}
	for i := 0; i < k; i++ {
		if math.Abs(d.Values[i]-full.Values[i]) > tol*scale {
			t.Errorf("value %d: %.15g, Jacobi %.15g", i, d.Values[i], full.Values[i])
		}
		for j := 0; j < k; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := cmplx.Abs(Dot(d.Vectors[i], d.Vectors[j])); math.Abs(got-want) > 1e-12 {
				t.Errorf("|<v%d,v%d>| = %.15f, want %v", i, j, got, want)
			}
		}
		var res float64
		for r := 0; r < n; r++ {
			var av complex128
			for c := 0; c < n; c++ {
				av += a.At(r, c) * d.Vectors[i][c]
			}
			diff := av - complex(d.Values[i], 0)*d.Vectors[i][r]
			res += real(diff)*real(diff) + imag(diff)*imag(diff)
		}
		if math.Sqrt(res) > tol*scale {
			t.Errorf("pair %d residual %.3g > %.3g", i, math.Sqrt(res), tol*scale)
		}
		// Project v_i onto the Jacobi eigenvectors whose values tie with
		// λ_i: the projection must keep its whole norm.
		var inSpan float64
		for j := 0; j < n; j++ {
			if math.Abs(full.Values[j]-d.Values[i]) <= 1e-9*scale {
				dot := cmplx.Abs(Dot(d.Vectors[i], full.Vectors[j]))
				inSpan += dot * dot
			}
		}
		if math.Abs(inSpan-1) > 1e-9 {
			t.Errorf("vector %d keeps %.12f of its norm in its eigenspace, want 1", i, inSpan)
		}
	}
}

// TestTopEigenRepeatedEigenvalues: exactly repeated eigenvalues above and
// below the signal threshold, and an exactly flat noise floor (σ²·I plus
// a low-rank signal, the noiseless MUSIC covariance), must come back as
// orthonormal vectors spanning each repeated eigenspace.
func TestTopEigenRepeatedEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spectra := map[string][]float64{
		"triple-top":   {5, 5, 5, 2, 2, 1, 0.5, 0.25, 0.125, 0.0625, 0.03, 0.01},
		"paired":       {9, 4, 4, 3, 3, 3, 1, 1, 0.5, 0.5, 0.1, 0.1},
		"flat-noise":   {8, 3, 1, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01},
		"all-equal":    {2, 2, 2, 2, 2, 2},
		"zero-cluster": {4, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, lambdas := range spectra {
		t.Run(name, func(t *testing.T) {
			a := spectrumHermitian(t, rng, lambdas)
			k := min(6, len(lambdas))
			var ws TopEigenWorkspace
			d, err := TopEigenInto(a, k, &ws)
			if err != nil {
				t.Fatal(err)
			}
			checkTopPairs(t, a, d, k, 1e-12)
		})
	}
	// Diagonal input: the tridiagonal is already split everywhere.
	a := New(5, 5)
	for i, v := range []float64{1, 3, 3, 2, 3} {
		a.Set(i, i, complex(v, 0))
	}
	var ws TopEigenWorkspace
	d, err := TopEigenInto(a, 4, &ws)
	if err != nil {
		t.Fatal(err)
	}
	checkTopPairs(t, a, d, 4, 1e-14)
}

// TestTopEigenScaledInput: the solve scales its input by a power of two
// before reducing, so a covariance of magnitude 1e±150 (entries up to
// 1e300, whose squares overflow) decomposes like its unit-scale twin,
// as do mixed 1e150/1e-150 magnitudes. A covariance with no normal-range
// entry is zero for the solver: canonical basis, zero spectrum. A
// non-finite entry is an error.
func TestTopEigenScaledInput(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := spectrumHermitian(t, rng, gappedSpectrum(rng, 30, 3))
	var ws TopEigenWorkspace
	ref, err := TopEigenInto(base, 6, &ws)
	if err != nil {
		t.Fatal(err)
	}
	refVals := append([]float64(nil), ref.Values...)
	refVecs := make([][]complex128, len(ref.Vectors))
	for i, v := range ref.Vectors {
		refVecs[i] = append([]complex128(nil), v...)
	}
	for _, s := range []float64{1e150, 1e300, 1e-150, 1e-300} {
		a := base.Scale(complex(s, 0))
		d, err := TopEigenInto(a, 6, &ws)
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		// Jacobi cannot take a matrix whose squared norm leaves the
		// float64 range, so judge the pairs, values rescaled, against the
		// unit-scale matrix.
		unscaled := &EigenDecomposition{Vectors: d.Vectors}
		for _, v := range d.Values {
			unscaled.Values = append(unscaled.Values, v/s)
		}
		checkTopPairs(t, base, unscaled, 6, 1e-12)
		for i := range refVals {
			if math.Abs(d.Values[i]/s-refVals[i]) > 1e-12*refVals[0] {
				t.Errorf("scale %g value %d: %.15g, unit-scale %.15g", s, i, d.Values[i]/s, refVals[i])
			}
		}
		for i := 0; i < 3; i++ { // the well-separated signal pairs
			if dot := cmplx.Abs(Dot(d.Vectors[i], refVecs[i])); math.Abs(dot-1) > 1e-12 {
				t.Errorf("scale %g vector %d: |<v,v_ref>| = %.15f", s, i, dot)
			}
		}
	}

	// Mixed magnitudes: a 1e150-scaled signal on a 1e-150-scaled floor.
	mixed := New(12, 12)
	sig := spectrumHermitian(t, rng, []float64{3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	floor := spectrumHermitian(t, rng, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			mixed.Set(i, j, 1e150*sig.At(i, j)+1e-150*floor.At(i, j))
		}
	}
	d, err := TopEigenInto(mixed, 4, &ws)
	if err != nil {
		t.Fatal(err)
	}
	checkTopPairs(t, mixed, d, 4, 1e-12)

	// Subnormal entries only: an underflowed covariance.
	sub := base.Scale(0x1p-1060)
	d, err = TopEigenInto(sub, 6, &ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Values {
		if d.Values[i] != 0 || d.Vectors[i][i] != 1 || cmplx.Abs(Dot(d.Vectors[i], d.Vectors[i])) != 1 {
			t.Fatalf("subnormal covariance: pair %d = %v, %v, want the canonical basis", i, d.Values[i], d.Vectors[i])
		}
	}

	for _, bad := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1)), complex(math.Inf(-1), 0)} {
		a := base.Clone()
		a.Set(3, 3, bad)
		if _, err := TopEigenInto(a, 6, &ws); err != ErrNotFinite {
			t.Errorf("entry %v: error %v, want ErrNotFinite", bad, err)
		}
	}
}
