package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"spotfi/internal/cmat"
	"spotfi/internal/csi"
	"spotfi/internal/rf"
)

// optScene synthesizes a noisy multipath packet with the given paths.
func optScene(seed int64, sigma float64, paths []PathEstimate, gains []complex128) *csi.Matrix {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	c := buildCSI(band, array, paths, gains)
	addNoise(c, sigma, rand.New(rand.NewSource(seed)))
	return c
}

func TestSteeringCacheSharedAndCounted(t *testing.T) {
	p := DefaultParams()
	// Perturb the grid so this configuration cannot collide with other
	// tests' cache entries.
	p.ToFMaxS = 201e-9
	h0, m0, _ := SteeringCacheStats()
	e1, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1, _ := SteeringCacheStats()
	if m1 != m0+1 || h1 != h0 {
		t.Fatalf("first build: hits %d→%d misses %d→%d, want one miss", h0, h1, m0, m1)
	}
	e2, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2, _ := SteeringCacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("second build: hits %d→%d misses %d→%d, want one hit", h1, h2, m1, m2)
	}
	if e1.tab != e2.tab {
		t.Fatal("same params produced different steering tables")
	}
	// A different grid is a different entry.
	p2 := p
	p2.AoAGridRad = math.Pi / 360
	e3, err := NewEstimator(p2)
	if err != nil {
		t.Fatal(err)
	}
	if e3.tab == e1.tab {
		t.Fatal("different grids share a steering table")
	}
}

func TestSteeringCacheConcurrentLookup(t *testing.T) {
	p := DefaultParams()
	p.ToFMaxS = 202e-9 // unique cache key for this test
	var wg sync.WaitGroup
	tabs := make([]*steeringTable, 16)
	for i := range tabs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := NewEstimator(p)
			if err != nil {
				t.Error(err)
				return
			}
			tabs[i] = e.tab
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(tabs); i++ {
		if tabs[i] != tabs[0] {
			t.Fatal("concurrent lookups produced distinct tables")
		}
	}
}

func TestSteeringTableMatchesDirectEvaluation(t *testing.T) {
	p := DefaultParams()
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	tab := e.tab
	for _, i := range []int{0, 1, len(tab.thetas) / 2, len(tab.thetas) - 1} {
		phi := Phi(tab.thetas[i], p.Array, p.Band)
		for a := 0; a < tab.subAnt; a++ {
			want := complexPow(phi, a)
			if cmplx.Abs(tab.phi[i*tab.subAnt+a]-want) > 1e-12 {
				t.Fatalf("phi table (%d,%d) = %v, want %v", i, a, tab.phi[i*tab.subAnt+a], want)
			}
		}
	}
	for _, j := range []int{0, len(tab.taus) / 2, len(tab.taus) - 1} {
		om := Omega(tab.taus[j], p.Band)
		for s := 0; s < tab.subSub; s++ {
			want := complexPow(om, s)
			if cmplx.Abs(tab.omega[j*tab.subSub+s]-want) > 1e-12 {
				t.Fatalf("omega table (%d,%d) mismatch", j, s)
			}
		}
	}
}

func complexPow(z complex128, n int) complex128 {
	r, phase := cmplx.Polar(z)
	return cmplx.Rect(math.Pow(r, float64(n)), phase*float64(n))
}

// denseReference is the brute-force dense sweep the streaming kernel must
// reproduce: from the column forms the estimator's columnQ computes for
// its last estimate, it evaluates P = 1/clamp(qd + 2·cross) over the
// whole grid, keeps every interior cell no 8-neighbour strictly exceeds,
// refines, sorts, dedupes and truncates to count. The row certificate is
// exact with respect to those forms, so the sweep must match bit for bit;
// TestColumnFormsMatchProjection holds the forms themselves to the
// explicit projections. It returns the peaks (nil for none) and the
// flattened spectrum (row-major by θ).
func denseReference(e *Estimator, count int) ([]PathEstimate, []float64) {
	tab := e.tab
	nt, nu := len(e.thetas), len(e.taus)
	spec := make([]float64, nt*nu)
	qp := make([]complex128, tab.nPair)
	for j := 0; j < nu; j++ {
		qd := e.columnQ(j, qp)
		for i := 0; i < nt; i++ {
			pr := tab.pair[i*tab.nPair : (i+1)*tab.nPair]
			var cross float64
			for c, qc := range qp {
				cross += real(pr[c])*real(qc) - imag(pr[c])*imag(qc)
			}
			denom := qd + 2*cross
			if denom < 1e-18 {
				denom = 1e-18
			}
			spec[i*nu+j] = 1 / denom
		}
	}
	var peaks []PathEstimate
	for i := 1; i < nt-1; i++ {
	cells:
		for j := 1; j < nu-1; j++ {
			v := spec[i*nu+j]
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					if spec[(i+di)*nu+j+dj] > v {
						continue cells
					}
				}
			}
			theta := refineAxis(e.thetas, i, func(k int) float64 { return spec[k*nu+j] })
			tau := refineAxis(e.taus, j, func(k int) float64 { return spec[i*nu+k] })
			peaks = append(peaks, PathEstimate{AoA: theta, ToF: tau, Power: v})
		}
	}
	// Sort by the canonical order, then drop every peak within both merge
	// radii of a stronger kept one and truncate to count. Stopping once
	// count peaks are kept is the same as deduplicating the whole list
	// and truncating, and keeps flat spectra, where every interior cell
	// is a candidate, fast.
	sort.Slice(peaks, func(a, b int) bool { return peakBefore(peaks[a], peaks[b]) })
	rTheta, rTau := e.p.dedupeRadii()
	var kept []PathEstimate
	for _, p := range peaks {
		if len(kept) == count {
			break
		}
		dup := false
		for _, q := range kept {
			if math.Abs(p.AoA-q.AoA) <= rTheta && math.Abs(p.ToF-q.ToF) <= rTau {
				dup = true
			}
		}
		if !dup {
			kept = append(kept, p)
		}
	}
	return kept, spec
}

// checkAgainstReference estimates c and requires the paths, and the
// Spectrum when withSpectrum is set, to be finite and equal denseReference
// bit for bit. It returns the Diag of the estimate; an estimation error is
// returned, not judged.
func checkAgainstReference(t testing.TB, e *Estimator, c *csi.Matrix, withSpectrum bool) (Diag, error) {
	t.Helper()
	got, d, err := e.EstimatePathsDiag(c)
	if err != nil {
		return d, err
	}
	want, wantSpec := denseReference(e, d.SignalDim)
	if len(got) != len(want) {
		t.Fatalf("sweep found %d paths, dense reference %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
	for i := range got {
		p := got[i]
		if math.IsNaN(p.Power) || math.IsInf(p.Power, 0) || math.IsNaN(p.AoA) || math.IsNaN(p.ToF) {
			t.Fatalf("path %d is not finite: %+v", i, p)
		}
		if p != want[i] { //lint:allow floateq the streaming sweep must reproduce the dense reference bit for bit
			t.Fatalf("path %d: sweep %+v, dense reference %+v", i, p, want[i])
		}
	}
	// Each interior τ-column evaluates at most three columns of every θ
	// row, when no row can be ruled out.
	if maxCells := 3 * len(e.thetas) * (len(e.taus) - 2); d.CellsSwept <= 0 || d.CellsSwept > maxCells {
		t.Fatalf("CellsSwept = %d, want within (0, %d]", d.CellsSwept, maxCells)
	}
	if !withSpectrum {
		return d, nil
	}
	spec, err := e.Spectrum(c)
	if err != nil {
		t.Fatalf("Spectrum: %v", err)
	}
	nu := len(spec.Taus)
	for i, row := range spec.P {
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(wantSpec[i*nu+j]) {
				t.Fatalf("Spectrum[%d][%d] = %v, dense reference %v", i, j, v, wantSpec[i*nu+j])
			}
		}
	}
	return d, nil
}

// TestDiagPeaksCountsCandidates requires Diag.Peaks to count the sweep's
// peaks before selection: a flat packet, whose underflowed covariance
// makes every interior cell a peak, reports far more than SignalDim, and
// a noisy packet at least as many as the paths it returns.
func TestDiagPeaksCountsCandidates(t *testing.T) {
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	interior := (len(e.thetas) - 2) * (len(e.taus) - 2)
	for n := 0; n < 20; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		paths, gains := randomPaths(rng)
		c := buildCSI(e.p.Band, e.p.Array, paths, gains)
		addNoise(c, 0.02+0.28*rng.Float64(), rng)
		got, d, err := e.EstimatePathsDiag(c)
		if err != nil {
			t.Fatal(err)
		}
		if d.Peaks < len(got) {
			t.Fatalf("noisy packet %d: Peaks = %d, below the %d paths returned", n, d.Peaks, len(got))
		}
		for _, row := range c.Values {
			for s := range row {
				row[s] *= 1e-160
			}
		}
		if _, d, err = e.EstimatePathsDiag(c); err != nil {
			t.Fatal(err)
		}
		if d.Peaks != interior || d.SignalDim > e.p.MaxPaths {
			t.Fatalf("flat packet %d: Peaks = %d with SignalDim %d, want every interior cell (%d)", n, d.Peaks, d.SignalDim, interior)
		}
	}
}

// randomPaths draws 1–6 paths spread over ±80° AoA and ±150 ns ToF with
// random complex gains.
func randomPaths(rng *rand.Rand) ([]PathEstimate, []complex128) {
	n := 1 + rng.Intn(6)
	paths := make([]PathEstimate, n)
	gains := make([]complex128, n)
	for k := range paths {
		paths[k] = PathEstimate{
			AoA: (rng.Float64()*160 - 80) * math.Pi / 180,
			ToF: (rng.Float64()*300 - 150) * 1e-9,
		}
		gains[k] = cmplx.Rect(0.2+0.8*rng.Float64(), 2*math.Pi*rng.Float64())
	}
	return paths, gains
}

// corpus is a seeded family of test packets for one estimator
// configuration: csi builds packet n from a generator seeded by the
// corpus index and n.
type corpus struct {
	name    string
	p       Params
	packets int
	csi     func(e *Estimator, rng *rand.Rand, n int) *csi.Matrix
}

// sweepCorpora are the packet families the structured front end is held
// to: 3,000 noisy multipath packets on the default configuration;
// noiseless packets, every other one a single path exactly on a grid
// point, where the denominator mostly hits the 1e-18 clamp; flat packets,
// scaled down until the covariance underflows, so every interior cell
// ties with its vertical neighbours; and noisy packets with three antenna
// pairs and on a 20 MHz band.
func sweepCorpora() []corpus {
	threePairs := DefaultParams()
	threePairs.SubarrayAntennas = 3
	band20 := DefaultParams()
	band20.Band = rf.Band20MHz()
	band20.Array = rf.DefaultArray(band20.Band)
	band20.SubarraySubcarriers = 14
	noisy := func(e *Estimator, rng *rand.Rand, _ int) *csi.Matrix {
		paths, gains := randomPaths(rng)
		c := buildCSI(e.p.Band, e.p.Array, paths, gains)
		addNoise(c, 0.02+0.28*rng.Float64(), rng)
		return c
	}
	return []corpus{
		{"default", DefaultParams(), 3000, noisy},
		{"noiseless", DefaultParams(), 300, func(e *Estimator, rng *rand.Rand, n int) *csi.Matrix {
			paths, gains := randomPaths(rng)
			if n%2 == 0 {
				paths = []PathEstimate{{AoA: e.thetas[1+rng.Intn(len(e.thetas)-2)], ToF: e.taus[1+rng.Intn(len(e.taus)-2)]}}
			}
			return buildCSI(e.p.Band, e.p.Array, paths, gains[:len(paths)])
		}},
		{"flat", DefaultParams(), 30, func(e *Estimator, rng *rand.Rand, n int) *csi.Matrix {
			c := noisy(e, rng, n)
			for _, row := range c.Values {
				for s := range row {
					row[s] *= 1e-160
				}
			}
			return c
		}},
		{"three-antenna-pairs", threePairs, 300, noisy},
		{"20MHz", band20, 300, noisy},
	}
}

// forEachPacket runs fn as one subtest per corpus of sweepCorpora, plus
// one over FuzzEstimatePaths's seeds, on every packet with an estimator
// built for the corpus.
func forEachPacket(t *testing.T, fn func(t *testing.T, e *Estimator, c *csi.Matrix)) {
	for ci, cp := range sweepCorpora() {
		t.Run(cp.name, func(t *testing.T) {
			e, err := NewEstimator(cp.p)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < cp.packets; n++ {
				fn(t, e, cp.csi(e, rand.New(rand.NewSource(int64(ci)<<32|int64(n))), n))
			}
		})
	}
	t.Run("fuzz-seeds", func(t *testing.T) {
		e, err := NewEstimator(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range estimateFuzzSeeds() {
			fn(t, e, c)
		}
	})
}

// TestSweepMatchesDenseReference is the exactness guarantee of the
// streaming sweep: on every packet of sweepCorpora the paths and the
// spectrum equal the brute-force dense reference bit for bit. On the
// noisy default corpus the sweep must also evaluate fewer than 4,000
// denominators per packet on average, of the grid's 36,381: a sweep that
// fell back to every row would still be exact, and only its cost shows
// it.
func TestSweepMatchesDenseReference(t *testing.T) {
	for ci, cp := range sweepCorpora() {
		t.Run(cp.name, func(t *testing.T) {
			e, err := NewEstimator(cp.p)
			if err != nil {
				t.Fatal(err)
			}
			cells := 0
			for n := 0; n < cp.packets; n++ {
				rng := rand.New(rand.NewSource(int64(ci)<<32 | int64(n)))
				d, err := checkAgainstReference(t, e, cp.csi(e, rng, n), n%10 == 0)
				if err != nil {
					t.Fatalf("packet %d: %v", n, err)
				}
				cells += d.CellsSwept
			}
			if mean := float64(cells) / float64(cp.packets); cp.name == "default" && mean >= 4000 {
				t.Fatalf("mean %.0f denominators evaluated per packet, want < 4000", mean)
			}
		})
	}
}

// TestSmoothedGramMatchesDense holds the covariance the estimator builds
// from the block-Hankel structure to the dense product
// SmoothCSI(c).Gram() on every packet of sweepCorpora and on the fuzz
// seeds. The sliding window sums round differently: each entry must lie
// within 2⁻⁴⁴·max|G| of the dense one, plus 2⁻¹⁰⁶⁴ for the flat packets,
// whose products are subnormal and round in absolute steps of 2⁻¹⁰⁷⁴.
// Both matrices must be exactly Hermitian with a real diagonal.
func TestSmoothedGramMatchesDense(t *testing.T) {
	var worst float64
	forEachPacket(t, func(t *testing.T, e *Estimator, c *csi.Matrix) {
		p := e.p
		want := SmoothCSI(c, p.SubarrayAntennas, p.SubarraySubcarriers).Gram()
		rows := want.Rows()
		got := cmat.New(rows, rows)
		smoothedGramInto(c, p.SubarrayAntennas, p.SubarraySubcarriers, got)
		var gmax float64
		for i := 0; i < rows; i++ {
			gmax = math.Max(gmax, cmplx.Abs(want.At(i, i)))
		}
		bound := 0x1p-44*gmax + 0x1p-1064
		for i := 0; i < rows; i++ {
			if imag(got.At(i, i)) != 0 {
				t.Fatalf("diagonal entry %d = %v is not real", i, got.At(i, i))
			}
			for j := 0; j < rows; j++ {
				if got.At(i, j) != cmplx.Conj(got.At(j, i)) { //lint:allow floateq exact Hermitian symmetry is the contract
					t.Fatalf("entry (%d,%d) is not the conjugate of (%d,%d)", i, j, j, i)
				}
				d := cmplx.Abs(got.At(i, j) - want.At(i, j))
				if !(d <= bound) {
					t.Fatalf("entry (%d,%d): structured %v, dense %v, |Δ| %.3g > bound %.3g", i, j, got.At(i, j), want.At(i, j), d, bound)
				}
				if gmax > 0x1p-900 {
					worst = math.Max(worst, d/gmax)
				}
			}
		}
	})
	t.Logf("largest |Δ|/max|G| on normal-range covariances: %.3g (bound 2⁻⁴⁴ = %.3g)", worst, 0x1p-44)
}

// TestColumnFormsMatchProjection holds columnQ's correlation-polynomial
// forms to the explicit projections they replace, w_ka = v_k[block a]ᴴ·o
// and q_ab = δ_ab·‖o‖² − Σ_k conj(w_ka)·w_kb, on every τ-column of every
// packet of sweepCorpora and of the fuzz seeds: qd and each q_ab must lie
// within 2⁻⁴⁴·subAnt·‖o‖² of them.
func TestColumnFormsMatchProjection(t *testing.T) {
	var worst float64
	forEachPacket(t, func(t *testing.T, e *Estimator, c *csi.Matrix) {
		if _, _, err := e.prepare(c); err != nil {
			t.Fatal(err)
		}
		tab := e.tab
		subAnt, subSub := tab.subAnt, tab.subSub
		w := make([]complex128, e.cut*subAnt)
		qp := make([]complex128, tab.nPair)
		for j := range e.taus {
			qd := e.columnQ(j, qp)
			o := tab.omega[j*subSub : (j+1)*subSub]
			for k, v := range e.vecs {
				for a := 0; a < subAnt; a++ {
					var sum complex128
					for s, os := range o {
						sum += cmplx.Conj(v[a*subSub+s]) * os
					}
					w[k*subAnt+a] = sum
				}
			}
			scale := float64(subAnt) * tab.omegaNorm[j]
			bound := 0x1p-44 * scale
			wantQd := scale
			for _, wv := range w {
				wantQd -= real(wv)*real(wv) + imag(wv)*imag(wv)
			}
			if d := math.Abs(qd - wantQd); !(d <= bound) {
				t.Fatalf("column %d: qd %v, projection %v, |Δ| %.3g > bound %.3g", j, qd, wantQd, d, bound)
			} else {
				worst = math.Max(worst, d/scale)
			}
			pc := 0
			for a := 0; a < subAnt; a++ {
				for b := a + 1; b < subAnt; b++ {
					var want complex128
					for k := 0; k < e.cut; k++ {
						want -= cmplx.Conj(w[k*subAnt+a]) * w[k*subAnt+b]
					}
					if d := cmplx.Abs(qp[pc] - want); !(d <= bound) {
						t.Fatalf("column %d pair (%d,%d): q %v, projection %v, |Δ| %.3g > bound %.3g", j, a, b, qp[pc], want, d, bound)
					} else {
						worst = math.Max(worst, d/scale)
					}
					pc++
				}
			}
		}
	})
	t.Logf("largest |Δ|/(subAnt·‖o‖²): %.3g (bound 2⁻⁴⁴ = %.3g)", worst, 0x1p-44)
}

// TestSweepCandidateFilterIsExact plants a cell of denominator d with one
// of its eight neighbours just below it, on a background no other cell
// peaks on, and requires isPeak to obey the strict rule on 1/d down the
// middle τ-column. A neighbour whose reciprocal ties the cell's must not
// rule the cell out, however close below d it is; one inside the filter's
// 2⁻⁴⁶ margin whose reciprocal is larger must.
func TestSweepCandidateFilterIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		d := math.Ldexp(1+rng.Float64(), rng.Intn(60)-30)
		// tie is the smallest denominator whose reciprocal equals 1/d.
		tie := d
		for 1/math.Nextafter(tie, 0) == 1/d { //lint:allow floateq a tie is exact equality of correctly rounded reciprocals
			tie = math.Nextafter(tie, 0)
		}
		for _, dn := range []float64{tie, d * (1 - 0x1p-50)} {
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					if di == 0 && dj == 0 {
						continue
					}
					// plane[r][c] is the denominator r−2 rows and c−1
					// columns from the planted cell at plane[2][1].
					var plane [5][3]float64
					for r := range plane {
						for c := range plane[r] {
							plane[r][c] = d * float64(4+abs(r-2)+abs(c-1))
						}
					}
					plane[2][1] = d
					plane[2+di][1+dj] = dn
					got := 0
					for r := 1; r <= 3; r++ {
						var n [3][3]float64
						copy(n[:], plane[r-1:r+2])
						if isPeak(&n) {
							got++
						}
					}
					// The planted neighbour peaks whenever it lies in the
					// middle column; the cell peaks unless 1/dn beats 1/d.
					want := 0
					if dj == 0 {
						want++
					}
					if !(1/dn > 1/d) {
						want++
					}
					if got != want {
						t.Fatalf("d=%v, neighbour (%+d,%+d) at %v: %d peaks, want %d", d, di, dj, dn, got, want)
					}
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestCoarseMatchesDense holds the sweep, which the coarse ladder rung
// runs like every other rung, to the dense reference on hand-placed
// scenes — one path, three, and six with two of them 4.6° and 12 ns
// apart: the paths and the spectrum equal the reference bit for bit.
func TestCoarseMatchesDense(t *testing.T) {
	scenes := []struct {
		name  string
		paths []PathEstimate
		gains []complex128
		sigma float64
	}{
		{
			name:  "single",
			paths: []PathEstimate{{AoA: 0.2, ToF: 30e-9}},
			gains: []complex128{1},
			sigma: 0.05,
		},
		{
			name: "three-path",
			paths: []PathEstimate{
				{AoA: 0.3, ToF: 15e-9}, {AoA: -0.5, ToF: 55e-9}, {AoA: 0.9, ToF: 95e-9}},
			gains: []complex128{1, 0.6 + 0.2i, 0.35 - 0.1i},
			sigma: 0.05,
		},
		{
			name: "multipath-heavy",
			paths: []PathEstimate{
				{AoA: -1.1, ToF: -80e-9}, {AoA: -0.4, ToF: 10e-9}, {AoA: -0.32, ToF: 22e-9},
				{AoA: 0.15, ToF: 60e-9}, {AoA: 0.8, ToF: 120e-9}, {AoA: 1.25, ToF: 180e-9}},
			gains: []complex128{0.7, 1, 0.9 - 0.3i, 0.5 + 0.4i, 0.45, 0.3i},
			sigma: 0.08,
		},
	}
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenes {
		for seed := int64(1); seed <= 8; seed++ {
			if _, err := checkAgainstReference(t, e, optScene(seed, sc.sigma, sc.paths, sc.gains), true); err != nil {
				t.Fatalf("%s/%d: %v", sc.name, seed, err)
			}
		}
	}
}

// TestCoarseWindowEdgeFallback places two pairs of close paths whose
// peaks sit about four cells apart, so a search over windows of the grid
// would meet them at a window's edge. The sweep has no windows: it must
// match the dense reference bit for bit on every seed.
func TestCoarseWindowEdgeFallback(t *testing.T) {
	paths := []PathEstimate{
		{AoA: -0.45, ToF: 18e-9}, {AoA: -0.38, ToF: 26e-9},
		{AoA: 0.52, ToF: 70e-9}, {AoA: 0.58, ToF: 85e-9}}
	gains := []complex128{1, 0.95 - 0.2i, 0.8 + 0.3i, 0.75}

	e, err := NewEstimator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 12; seed++ {
		if _, err := checkAgainstReference(t, e, optScene(seed, 0.1, paths, gains), true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestEstimateSteadyStateAllocs(t *testing.T) {
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]*csi.Matrix, 4)
	for i := range cs {
		cs[i] = optScene(int64(i+1), 0.05,
			[]PathEstimate{{AoA: 0.3, ToF: 15e-9}, {AoA: -0.5, ToF: 55e-9}},
			[]complex128{1, 0.6 + 0.2i})
	}
	for _, c := range cs {
		if _, err := e.EstimatePaths(c); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(16, func() {
		if _, err := e.EstimatePaths(cs[n%len(cs)]); err != nil {
			t.Fatal(err)
		}
		n++
	})
	// The only steady-state allocation is the caller-owned result slice.
	if allocs > 2 {
		t.Fatalf("steady-state EstimatePaths allocates %.1f times per call, want ≤ 2", allocs)
	}
}

// TestDedupeRadiiSurviveGridRefinement is the regression test for the
// grid-index dedupe bug: halving both grid steps must not change how many
// distinct paths survive merging, because the merge radii are physical.
func TestDedupeRadiiSurviveGridRefinement(t *testing.T) {
	paths := []PathEstimate{
		{AoA: 0.3, ToF: 20e-9}, {AoA: -0.6, ToF: 80e-9}}
	gains := []complex128{1, 0.7 + 0.2i}

	counts := make(map[string]int)
	for _, cfg := range []struct {
		name  string
		scale float64
	}{{"default-grid", 1}, {"half-step-grid", 0.5}} {
		p := DefaultParams()
		p.AoAGridRad *= cfg.scale
		p.ToFGridS *= cfg.scale
		e, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		c := optScene(3, 0.05, paths, gains)
		got, err := e.EstimatePaths(c)
		if err != nil {
			t.Fatal(err)
		}
		counts[cfg.name] = len(got)
	}
	if counts["default-grid"] != counts["half-step-grid"] {
		t.Fatalf("path count changed with grid refinement: %v", counts)
	}
}

// TestGeometricSeriesClosedForm is the regression test for phase/magnitude
// accumulation drift: element n of the series must match the closed form
// z^n even at n = 256.
func TestGeometricSeriesClosedForm(t *testing.T) {
	const n = 256
	z := cmplx.Exp(complex(0, -2*math.Pi*0.31830988618)) // irrational turn: worst case for drift
	out := geometricSeries(z, n)
	phase := cmplx.Phase(z)
	for _, i := range []int{1, 2, 17, 128, n - 1} {
		want := cmplx.Rect(1, phase*float64(i))
		if cmplx.Abs(out[i]-want) > 1e-12 {
			t.Fatalf("element %d: %v, want %v (|Δ| = %.3g)", i, out[i], want, cmplx.Abs(out[i]-want))
		}
		// The input z = e^{jθ} itself carries ~1 ulp of magnitude error,
		// so the bound is a few ulps — independent of i, unlike the
		// repeated-multiplication drift which grows linearly with i.
		if d := math.Abs(cmplx.Abs(out[i]) - 1); d > 5e-15 {
			t.Fatalf("element %d walked off the unit circle by %.3g", i, d)
		}
	}
	// Non-unit modulus stays on the closed form too.
	r := 0.99
	zr := complex(r, 0) * z
	outR := geometricSeries(zr, n)
	for _, i := range []int{1, 64, n - 1} {
		want := cmplx.Rect(math.Pow(r, float64(i)), phase*float64(i))
		if cmplx.Abs(outR[i]-want) > 1e-12*math.Pow(r, float64(i))+1e-18 {
			t.Fatalf("damped element %d: %v, want %v", i, outR[i], want)
		}
	}
}

func TestRefineAxisBoundaryAndClamp(t *testing.T) {
	grid := []float64{0, 1, 2, 3}
	flat := func(int) float64 { return 1 }
	// Out-of-range indices clamp into the grid instead of panicking.
	if got := refineAxis(grid, -3, flat); got != 0 {
		t.Fatalf("refineAxis(-3) = %v, want 0", got)
	}
	if got := refineAxis(grid, 99, flat); got != 3 {
		t.Fatalf("refineAxis(99) = %v, want 3", got)
	}
	// Boundary indices return the grid point: no neighbor to fit through.
	if got := refineAxis(grid, 0, flat); got != 0 {
		t.Fatalf("refineAxis(0) = %v, want 0", got)
	}
	if got := refineAxis(grid, len(grid)-1, flat); got != 3 {
		t.Fatalf("refineAxis(last) = %v, want 3", got)
	}
	// A flat (degenerate) parabola at an interior point returns the grid
	// point rather than dividing by ~0.
	if got := refineAxis(grid, 1, flat); got != 1 {
		t.Fatalf("flat refineAxis = %v, want 1", got)
	}
	// The interpolated result never leaves the grid range even when the
	// parabola vertex would.
	steep := func(k int) float64 { return []float64{10, 9.99, 0, -50}[k] }
	got := refineAxis(grid, 1, steep)
	if got < grid[0] || got > grid[len(grid)-1] {
		t.Fatalf("refined value %v escaped the grid", got)
	}
	if refineAxis(nil, 0, flat) != 0 {
		t.Fatal("empty grid must return 0")
	}
}
