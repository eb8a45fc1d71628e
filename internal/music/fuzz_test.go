package music

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/rf"
)

// csiBytes encodes m's components as little-endian float64s, real before
// imaginary, antenna-major: the fuzz input format csiFromBytes reads.
func csiBytes(m *csi.Matrix) []byte {
	var out []byte
	for _, row := range m.Values {
		for _, v := range row {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(real(v)))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(imag(v)))
		}
	}
	return out
}

// csiFromBytes builds an antennas×subcarriers matrix from data's float64s,
// repeating them cyclically when data is short; nil if data holds none.
func csiFromBytes(data []byte, antennas, subcarriers int) *csi.Matrix {
	n := len(data) / 8
	if n == 0 {
		return nil
	}
	f := func(k int) float64 {
		k %= n
		return math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
	}
	m := csi.NewMatrix(antennas, subcarriers)
	k := 0
	for a := range m.Values {
		for s := range m.Values[a] {
			m.Values[a][s] = complex(f(k), f(k+1))
			k += 2
		}
	}
	return m
}

// FuzzEstimatePaths feeds adversarial but finite 3×30 CSI to the
// estimator. Every input must be rejected with an error or yield finite
// paths equal to the brute-force dense reference; a panic or a NaN power
// fails.
func FuzzEstimatePaths(f *testing.F) {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	rng := rand.New(rand.NewSource(1))
	random := func(scale func(a, s int) float64) *csi.Matrix {
		m := csi.NewMatrix(array.Antennas, band.Subcarriers)
		for a := range m.Values {
			for s := range m.Values[a] {
				m.Values[a][s] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(scale(a, s), 0)
			}
		}
		return m
	}
	// Rank-1: one noiseless path, so every packet's covariance has a
	// single nonzero eigenvalue.
	f.Add(csiBytes(buildCSI(band, array, []PathEstimate{{AoA: 0.4, ToF: 20e-9}}, []complex128{1})))
	// Identical across subcarriers: each antenna reports one value.
	identical := csi.NewMatrix(array.Antennas, band.Subcarriers)
	for a := range identical.Values {
		for s := range identical.Values[a] {
			identical.Values[a][s] = complex(1+float64(a), -0.5*float64(a))
		}
	}
	f.Add(csiBytes(identical))
	// Near zero: the covariance underflows.
	f.Add(csiBytes(random(func(int, int) float64 { return 1e-300 })))
	// Mixed magnitudes: 1e150 and 1e-150 entries side by side.
	f.Add(csiBytes(random(func(a, s int) float64 {
		if (a+s)%2 == 0 {
			return 1e150
		}
		return 1e-150
	})))
	f.Add(csiBytes(random(func(int, int) float64 { return 1 })))

	e, err := NewEstimator(DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := csiFromBytes(data, array.Antennas, band.Subcarriers)
		if c == nil {
			return
		}
		_, _ = checkAgainstReference(t, e, c, false) // an error is an allowed outcome
	})
}

// FuzzSweepRowCertificate holds candidateRows to the column it certifies.
// It decodes a τ-column's block forms (qd, Re q, Im q) from raw float64
// bits, evaluates every row through cellDenom, and requires each interior
// row that survives the prefilter against its two θ-neighbours to lie in
// one of the returned spans, which must be ascending, disjoint and
// interior. The seeds sit where the certificate is easiest to get wrong:
// at the edge of its bound and of the clamp, with the minimum phase on a
// row or next to the ±90° rows, where ψ steps are smallest.
func FuzzSweepRowCertificate(f *testing.F) {
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	tab := e.tab
	nt := len(tab.thetas)
	add := func(qd float64, q complex128) {
		f.Add(math.Float64bits(qd), math.Float64bits(real(q)), math.Float64bits(imag(q)))
	}
	certified := func(qd float64, q complex128) bool {
		spans := tab.candidateRows(qd, []complex128{q}, nil)
		return len(spans) != 1 || spans[0] != rowSpan{1, nt - 2}
	}
	// bisect returns the boundary of an increasing predicate on [lo, hi],
	// false at lo and true at hi.
	bisect := func(lo, hi float64, ok func(float64) bool) float64 {
		for k := 0; k < 200 && math.Nextafter(lo, hi) < hi; k++ {
			mid := lo + (hi-lo)/2
			if ok(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}

	// Columns of noisy multipath packets, as the sweep sees them.
	rng := rand.New(rand.NewSource(1))
	qp := make([]complex128, tab.nPair)
	for n := 0; n < 8; n++ {
		paths, gains := randomPaths(rng)
		c := buildCSI(e.p.Band, e.p.Array, paths, gains)
		addNoise(c, 0.02+0.28*rng.Float64(), rng)
		if _, _, err := e.prepare(c); err != nil {
			f.Fatal(err)
		}
		for j := 0; j < len(tab.taus); j += 25 {
			add(e.columnQ(j, qp), qp[0])
		}
	}
	// Minimum phases π − arg q on a row's ψ — the middle row and the
	// rows at and next to ±90° — and between the two rows at each edge.
	var mins []float64
	for _, r := range []int{0, 1, 2, nt / 2, nt - 3, nt - 2, nt - 1} {
		mins = append(mins, tab.psi[r])
	}
	mins = append(mins, (tab.psi[0]+tab.psi[1])/2, (tab.psi[nt-2]+tab.psi[nt-1])/2)
	const rel = 0x1p-20
	for _, m := range mins {
		unit := cmplx.Rect(1, math.Pi-m)
		// |q| within a relative 2⁻²⁰ of the bound's threshold, both sides.
		edge := bisect(0, 0.25, func(a float64) bool { return certified(1, complex(a, 0)*unit) })
		for _, a := range []float64{edge * (1 - rel), edge, edge * (1 + rel), 0.25} {
			add(1, complex(a, 0)*unit)
		}
		// qd − 2|q| straddling the 1e-18 clamp.
		q := complex(1e-16, 0) * unit
		base := 2 * cmplx.Abs(q)
		for _, x := range []float64{1 - rel, 1 + rel} {
			add(base+1e-18*x, q)
		}
		qdEdge := bisect(base, base+1e-17, func(qd float64) bool { return certified(qd, q) })
		add(qdEdge, q)
		add(math.Nextafter(qdEdge, 0), q)
		// 1e±150 magnitudes, alone and mixed.
		add(1e150, complex(3e149, 0)*unit)
		add(1e-150, complex(3e-151, 0)*unit)
		add(1e150, complex(1e-150, 0)*unit)
	}
	add(1, 0)
	add(1e-18, 0)
	add(0, 0)

	f.Fuzz(func(t *testing.T, qdBits, reBits, imBits uint64) {
		qd := math.Float64frombits(qdBits)
		qp := []complex128{complex(math.Float64frombits(reBits), math.Float64frombits(imBits))}
		spans := tab.candidateRows(qd, qp, nil)
		in := make([]bool, nt)
		prev := 0
		for _, sp := range spans {
			if sp.lo <= prev || sp.hi < sp.lo || sp.hi > nt-2 {
				t.Fatalf("spans %v are not ascending, disjoint and interior", spans)
			}
			for i := sp.lo; i <= sp.hi; i++ {
				in[i] = true
			}
			prev = sp.hi
		}
		d := make([]float64, nt)
		for i := range d {
			d[i] = tab.cellDenom(i, qd, qp)
		}
		for i := 1; i < nt-1; i++ {
			cut := d[i] * undercut
			if d[i-1] < cut || d[i+1] < cut || in[i] {
				continue
			}
			t.Fatalf("qd=%v q=%v: row %d (d %v, neighbours %v %v) passes the prefilter outside spans %v",
				qd, qp[0], i, d[i], d[i-1], d[i+1], spans)
		}
	})
}
