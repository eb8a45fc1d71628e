package music

import (
	"math"
	"math/cmplx"

	"spotfi/internal/cmat"
	"spotfi/internal/csi"
	"spotfi/internal/rf"
)

// Phi returns Φ(θ) = exp(−j·2π·d·sin(θ)·f/c), the phase factor between
// adjacent antennas for a path arriving at angle θ (Eq. 1).
//
//spotfi:noalloc
func Phi(theta float64, array rf.Array, band rf.Band) complex128 {
	return cmplx.Exp(complex(0, -2*math.Pi*array.SpacingM*math.Sin(theta)*band.CarrierHz/rf.SpeedOfLight))
}

// Omega returns Ω(τ) = exp(−j·2π·f_δ·τ), the phase factor between adjacent
// subcarriers for a path with time of flight τ (Eq. 6).
//
//spotfi:noalloc
func Omega(tof float64, band rf.Band) complex128 {
	return cmplx.Exp(complex(0, -2*math.Pi*band.SubcarrierSpacingHz*tof))
}

// SteeringVector evaluates the joint steering vector ā(θ, τ) of Eq. 7 for a
// (sub)array of antennas × subcarriers sensors, antenna-major:
// element (a·subcarriers + s) = Φ(θ)^a · Ω(τ)^s.
func SteeringVector(theta, tof float64, antennas, subcarriers int, array rf.Array, band rf.Band) []complex128 {
	phi := Phi(theta, array, band)
	omega := Omega(tof, band)
	phiPow := geometricSeries(phi, antennas)
	omegaPow := geometricSeries(omega, subcarriers)
	return cmat.Kron(phiPow, omegaPow)
}

// geometricSeries returns [1, z, z², …, z^(n−1)]. Powers are computed in
// polar form — z^i = |z|^i·e^{i·arg(z)·i} — rather than by repeated
// multiplication: the accumulated product drifts in both phase and
// magnitude by an ulp per step, which for the steering powers (|z| = 1)
// slowly walks the vector off the unit circle as n grows. The closed form
// keeps element n exact to within one rounding of the sine/cosine.
func geometricSeries(z complex128, n int) []complex128 {
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	out[0] = 1
	r, phase := cmplx.Polar(z)
	if math.Abs(r-1) < 1e-12 {
		// Unit-modulus input (every steering factor is e^{jφ}, though
		// cmplx.Exp delivers |z| = 1 only to within an ulp — which r^i
		// would amplify i-fold): stay exactly on the unit circle.
		for i := 1; i < n; i++ {
			out[i] = cmplx.Rect(1, phase*float64(i))
		}
		return out
	}
	for i := 1; i < n; i++ {
		out[i] = cmplx.Rect(math.Pow(r, float64(i)), phase*float64(i))
	}
	return out
}

// SmoothCSI builds the smoothed CSI measurement matrix of Fig. 4: rows are
// the sensors of a subAnt×subSub window (antenna-major), columns are all
// shifted placements of that window inside the full antennas×subcarriers
// grid. For the paper's 3×30 system with a 2×15 window this yields a 30×32
// matrix whose columns are independent linear combinations of the same
// steering vectors, which is what lets MUSIC resolve more paths than
// antennas. The estimator never forms it: smoothedGramInto computes its
// Gram matrix straight from the CSI.
func SmoothCSI(c *csi.Matrix, subAnt, subSub int) *cmat.Matrix {
	m, n := c.Antennas(), c.Subcarriers()
	antShifts := m - subAnt + 1
	subShifts := n - subSub + 1
	if antShifts < 1 || subShifts < 1 {
		panic("music: smoothing window larger than CSI matrix")
	}
	x := cmat.New(subAnt*subSub, antShifts*subShifts)
	col := 0
	for b := 0; b < antShifts; b++ {
		for t := 0; t < subShifts; t++ {
			for a := 0; a < subAnt; a++ {
				src := c.Values[a+b]
				for s := 0; s < subSub; s++ {
					x.Set(a*subSub+s, col, src[s+t])
				}
			}
			col++
		}
	}
	return x
}

// smoothedGramInto writes G = X·Xᴴ into g, where X = SmoothCSI(c, subAnt,
// subSub), without forming X. X is block-Hankel, so its Gram matrix is
// too: entry ((a, s), (a′, s′)) is Σ_b Σ_t C[a+b][s+t]·conj(C[a′+b][s′+t])
// over the antShifts antenna and subShifts subcarrier placements, and
// along each diagonal s′ − s = δ of each subSub×subSub block the next
// entry is the last one plus the sample pair that enters the subcarrier
// window and minus the pair that leaves it. Each diagonal costs one full
// window sum and then 2·antShifts products per entry, against
// antShifts·subShifts per entry for the dense product. g is exactly
// Hermitian, with a real diagonal. The sliding sums round differently
// from the dense product: each entry is within a few hundred ulps of
// max_i G_ii of it (TestSmoothedGramMatchesDense states the bound).
//
//spotfi:noalloc
func smoothedGramInto(c *csi.Matrix, subAnt, subSub int, g *cmat.Matrix) {
	antShifts := c.Antennas() - subAnt + 1
	subShifts := c.Subcarriers() - subSub + 1
	for a := 0; a < subAnt; a++ {
		for a2 := a; a2 < subAnt; a2++ {
			lo := 0
			if a2 > a {
				lo = 1 - subSub
			}
			for delta := lo; delta < subSub; delta++ {
				s := max(0, -delta)
				var sum complex128
				for b := 0; b < antShifts; b++ {
					x, y := c.Values[a+b][s:], c.Values[a2+b][s+delta:]
					for t := 0; t < subShifts; t++ {
						sum += x[t] * cmplx.Conj(y[t])
					}
				}
				setHermitian(g, a*subSub+s, a2*subSub+s+delta, sum)
				for s++; s < subSub && s+delta < subSub; s++ {
					for b := 0; b < antShifts; b++ {
						x, y := c.Values[a+b], c.Values[a2+b]
						in := x[s-1+subShifts] * cmplx.Conj(y[s-1+delta+subShifts])
						sum += in - x[s-1]*cmplx.Conj(y[s-1+delta])
					}
					setHermitian(g, a*subSub+s, a2*subSub+s+delta, sum)
				}
			}
		}
	}
}

// setHermitian sets g[i][j] = v and g[j][i] = conj(v), or g[i][i] = Re v.
//
//spotfi:noalloc
func setHermitian(g *cmat.Matrix, i, j int, v complex128) {
	if i == j {
		g.Set(i, i, complex(real(v), 0))
		return
	}
	g.Set(i, j, v)
	g.Set(j, i, cmplx.Conj(v))
}
