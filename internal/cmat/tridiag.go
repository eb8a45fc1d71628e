package cmat

import (
	"math"
	"math/cmplx"
)

// eps is LAPACK's relative machine precision, 2⁻⁵³.
const eps = 0x1p-53

// tridiagonalize reduces the scaled Hermitian matrix in ws.h to the real
// symmetric tridiagonal T = Qᴴ·A·Q with diagonal ws.d and off-diagonal
// ws.e, Q = H₀·H₁⋯H_{n−2}, by the unblocked lower-triangle Householder
// reduction of LAPACK zhetd2. Row i of h holds column i of A's lower
// triangle (h[i·n+j] = A[j][i] for j ≥ i), so every column the reduction
// reads and every entry it updates is a contiguous row segment. Reflector
// H_i = I − τ_i·u_i·u_iᴴ has u_i = (0…0, 1, h[i·n+i+2], …, h[i·n+n−1]).
//
//spotfi:noalloc
func (ws *TopEigenWorkspace) tridiagonalize(n int) {
	h, p := ws.h, ws.p
	for i := 0; i < n-1; i++ {
		u := h[i*n : (i+1)*n]
		tau, beta := reflector(u[i+1:])
		ws.d[i], ws.e[i], ws.tau[i] = real(u[i]), beta, tau
		if tau == 0 {
			continue
		}
		// A₂₂ ← H_iᴴ·A₂₂·H_i on the trailing block: p = τ·A₂₂·u over
		// the stored triangle, w = p − ½·τ·(pᴴ·u)·u, then
		// A₂₂ −= u·wᴴ + w·uᴴ. Row c of the block is h[c·n+c:], and u and
		// p are resliced to match it so the loops carry no bounds checks.
		u[i+1] = 1
		for c := i + 1; c < n; c++ {
			p[c] = 0
		}
		for c := i + 1; c < n; c++ {
			hc := h[c*n+c : (c+1)*n]
			uc, pc := u[c:][:len(hc)], p[c:][:len(hc)]
			acc := complex(real(hc[0]), 0) * uc[0]
			for r := 1; r < len(hc); r++ {
				pc[r] += hc[r] * uc[0]
				acc += cmplx.Conj(hc[r]) * uc[r]
			}
			pc[0] += acc
		}
		var dot complex128
		for c := i + 1; c < n; c++ {
			p[c] *= tau
			dot += cmplx.Conj(p[c]) * u[c]
		}
		alpha := -0.5 * tau * dot
		for c := i + 1; c < n; c++ {
			p[c] += alpha * u[c]
		}
		for c := i + 1; c < n; c++ {
			hc := h[c*n+c : (c+1)*n]
			uc, pc := u[c:][:len(hc)], p[c:][:len(hc)]
			wc, vc := cmplx.Conj(pc[0]), cmplx.Conj(uc[0])
			for r := range hc {
				hc[r] -= uc[r]*wc + pc[r]*vc
			}
			hc[0] = complex(real(hc[0]), 0)
		}
	}
	ws.d[n-1] = real(h[n*n-1])
}

// reflector is LAPACK zlarfg for x = (α, x₁, …): it returns τ and a real
// β = −sign(Re α)·‖x‖ such that H = I − τ·u·uᴴ with u = (1, x₁/(α−β), …)
// gives Hᴴ·x = β·e₁, and overwrites x[1:] with u[1:]. β being real is
// what makes the reduced matrix real: each reflector also rotates out the
// phase of its subdiagonal entry. When x[1:] is zero and α real, H = I.
// A vector with ‖x‖² < 2⁻¹⁰⁰⁰ is flushed (τ = 0, β = 0): in a matrix
// scaled to unit magnitude that is a perturbation far below rounding, and
// it keeps ‖x‖ from being taken from underflowed squares.
//
//spotfi:noalloc
func reflector(x []complex128) (complex128, float64) {
	alpha := x[0]
	var xnorm2 float64
	for _, v := range x[1:] {
		xnorm2 += real(v)*real(v) + imag(v)*imag(v)
	}
	ar, ai := real(alpha), imag(alpha)
	if xnorm2 == 0 && ai == 0 {
		return 0, ar
	}
	norm2 := ar*ar + ai*ai + xnorm2
	if norm2 < 0x1p-1000 {
		return 0, 0
	}
	beta := -math.Copysign(math.Sqrt(norm2), ar)
	s := 1 / (alpha - complex(beta, 0))
	for i := 1; i < len(x); i++ {
		x[i] *= s
	}
	return complex((beta-ar)/beta, -ai/beta), beta
}

// tridiagEigenvalues overwrites w with the eigenvalues, in no particular
// order, of the symmetric tridiagonal matrix with diagonal w and squared
// off-diagonal e2 (e2 is destroyed), by the Pal–Walker–Kahan
// square-root-free implicit QL iteration of LAPACK dsterf. Off-diagonal
// entries with e² ≤ ε²·|d_m·d_{m+1}| split the matrix. A block whose
// last diagonal entry is smaller than its first is reversed before the
// iteration, which is dsterf's switch from QL to QR: only eigenvalues are
// wanted, and reversal is a permutation similarity. It returns the number
// of QL iterations, and false if the budget of 30 per eigenvalue ran out.
//
//spotfi:noalloc
func tridiagEigenvalues(w, e2 []float64) (int, bool) {
	n := len(w)
	its := 0
	for l := 0; l < n; {
		lend := l
		for lend < n-1 && !negligible(w, e2, lend) {
			lend++
		}
		next := lend + 1
		if lend < n-1 {
			e2[lend] = 0
		}
		if math.Abs(w[lend]) < math.Abs(w[l]) {
			for i, j := l, lend; i < j; i, j = i+1, j-1 {
				w[i], w[j] = w[j], w[i]
			}
			for i, j := l, lend-1; i < j; i, j = i+1, j-1 {
				e2[i], e2[j] = e2[j], e2[i]
			}
		}
		for l <= lend {
			m := l
			for m < lend && !negligible(w, e2, m) {
				m++
			}
			if m < lend {
				e2[m] = 0
			}
			switch m {
			case l:
				l++
				continue
			case l + 1:
				w[l], w[l+1] = sym2x2Eigenvalues(w[l], math.Sqrt(e2[l]), w[l+1])
				e2[l] = 0
				l += 2
				continue
			}
			if its == 30*n {
				return its, false
			}
			its++
			// Wilkinson-style shift from the leading 2×2, then one
			// implicit QL sweep from m up to l on squared quantities.
			rte := math.Sqrt(e2[l])
			sigma := (w[l+1] - w[l]) / (2 * rte)
			r := math.Abs(sigma)
			if r < 0x1p500 {
				r = math.Sqrt(sigma*sigma + 1)
			}
			sigma = w[l] - rte/(sigma+math.Copysign(r, sigma))
			c, s := 1.0, 0.0
			gamma := w[m] - sigma
			p := gamma * gamma
			for i := m - 1; i >= l; i-- {
				bb := e2[i]
				r := p + bb
				if i != m-1 {
					e2[i+1] = s * r
				}
				oldc := c
				inv := 1 / r
				c, s = p*inv, bb*inv
				oldgam := gamma
				gamma = c*(w[i]-sigma) - s*oldgam
				w[i+1] = oldgam + (w[i] - gamma)
				if c != 0 {
					p = gamma * gamma / c
				} else {
					p = oldc * bb
				}
			}
			e2[l] = s * p
			w[l] = sigma + gamma
		}
		l = next
	}
	return its, true
}

// negligible reports whether the squared off-diagonal e2[m] is small
// enough to split the tridiagonal there: e² ≤ ε²·|d_m·d_{m+1}|.
//
//spotfi:noalloc
func negligible(w, e2 []float64, m int) bool {
	return e2[m] <= eps*eps*math.Abs(w[m]*w[m+1])
}

// sym2x2Eigenvalues returns the eigenvalues of [[a, b], [b, c]], the one
// of larger magnitude first (LAPACK dlae2).
//
//spotfi:noalloc
func sym2x2Eigenvalues(a, b, c float64) (float64, float64) {
	sm := a + c
	acmx, acmn := c, a
	if math.Abs(a) > math.Abs(c) {
		acmx, acmn = a, c
	}
	rt := math.Hypot(a-c, 2*b)
	var rt1 float64
	switch {
	case sm < 0:
		rt1 = 0.5 * (sm - rt)
	case sm > 0:
		rt1 = 0.5 * (sm + rt)
	default:
		return 0.5 * rt, -0.5 * rt
	}
	return rt1, (acmx/rt1)*acmn - (b/rt1)*b
}

// Inverse iteration parameters, LAPACK dstein's: at most five solves per
// vector, and two more once the iterate's growth shows convergence.
const (
	invMaxIts = 5
	invExtra  = 2
)

// inverseIteration computes into ws.z the unit eigenvectors of the
// tridiagonal (ws.d, ws.e) for vals, given in descending order, by the
// inverse iteration of LAPACK dstein. An eigenvalue within 10·ε·|λ| of
// the previous one is nudged below it, so the two factorizations differ.
// Eigenvalues closer than 10⁻³·‖T‖₁ to their predecessor form a cluster,
// and each iterate is reorthogonalized against the earlier vectors of its
// cluster by modified Gram–Schmidt, which keeps repeated and
// near-repeated eigenvalues' vectors orthonormal. Start vectors are
// uniform on (−1, 1) from a generator seeded afresh on every call. Each
// vector's largest component is made positive.
//
//spotfi:noalloc
func (ws *TopEigenWorkspace) inverseIteration(vals []float64, n int) {
	if n == 1 {
		for j := range vals {
			ws.z[j] = 1
		}
		return
	}
	d, e := ws.d[:n], ws.e[:n-1]
	var onenrm float64
	for i := range d {
		s := math.Abs(d[i])
		if i > 0 {
			s += math.Abs(e[i-1])
		}
		if i < n-1 {
			s += math.Abs(e[i])
		}
		if s > onenrm {
			onenrm = s
		}
	}
	ortol := 1e-3 * onenrm
	dtpcrt := math.Sqrt(0.1 / float64(n))
	rng := uint64(0x9e3779b97f4a7c15)
	cluster := 0
	var xjm float64
	for j, xj := range vals {
		if j > 0 {
			if pertol := 10 * math.Abs(eps*xj); xjm-xj < pertol {
				xj = xjm - pertol
			}
			if math.Abs(xj-xjm) > ortol {
				cluster = j
			}
		}
		b := ws.z[j*n : (j+1)*n]
		for i := range b {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			b[i] = float64(rng>>11)*0x1p-52 - 1
		}
		tol := ws.lu.factor(d, e, xj)
		for its, conv := 1, 0; its <= invMaxIts; its++ {
			scaleVec(b, float64(n)*onenrm*math.Max(eps, math.Abs(ws.lu.a[n-1]))/math.Abs(b[maxAbsIndex(b)]))
			ws.lu.solve(b, tol)
			for i := cluster; i < j; i++ {
				zi := ws.z[i*n : (i+1)*n]
				var dot float64
				for r, x := range b {
					dot += x * zi[r]
				}
				for r, x := range zi {
					b[r] -= dot * x
				}
			}
			if math.Abs(b[maxAbsIndex(b)]) < dtpcrt {
				continue
			}
			if conv++; conv == invExtra+1 {
				break
			}
		}
		var norm2 float64
		for _, x := range b {
			norm2 += x * x
		}
		s := 1 / math.Sqrt(norm2)
		if b[maxAbsIndex(b)] < 0 {
			s = -s
		}
		scaleVec(b, s)
		xjm = xj
	}
}

// backTransform overwrites each of vecs, eigenvectors of the
// tridiagonal, with Q·vec, the matching eigenvectors of the reduced
// matrix.
//
//spotfi:noalloc
func (ws *TopEigenWorkspace) backTransform(vecs [][]complex128) {
	n := len(ws.d)
	for i := n - 2; i >= 0; i-- {
		tau := ws.tau[i]
		if tau == 0 {
			continue
		}
		u := ws.h[i*n+i+1 : (i+1)*n]
		for _, vec := range vecs {
			v := vec[i+1:][:len(u)]
			s := v[0]
			for r := 1; r < len(u); r++ {
				s += cmplx.Conj(u[r]) * v[r]
			}
			s *= tau
			v[0] -= s
			for r := 1; r < len(u); r++ {
				v[r] -= s * u[r]
			}
		}
	}
}

// triLU is LAPACK dlagtf's LU factorization with partial pivoting of
// T − λI for a symmetric tridiagonal T: U has diagonal a, first
// superdiagonal b and second superdiagonal u2; l holds the multipliers,
// and swap[k] records whether rows k and k+1 were interchanged. inv[k] is
// 1/a[k], or 0 for a pivot below 2⁻⁵⁰⁰ that solve must guard.
type triLU struct {
	a, b, l, u2, inv []float64
	swap             []bool
}

//spotfi:noalloc
func (f *triLU) grow(n int) {
	f.a = make([]float64, n)   //lint:allow noalloc first-call arena growth, cold by construction
	f.b = make([]float64, n)   //lint:allow noalloc first-call arena growth, cold by construction
	f.l = make([]float64, n)   //lint:allow noalloc first-call arena growth, cold by construction
	f.u2 = make([]float64, n)  //lint:allow noalloc first-call arena growth, cold by construction
	f.inv = make([]float64, n) //lint:allow noalloc first-call arena growth, cold by construction
	f.swap = make([]bool, n)   //lint:allow noalloc first-call arena growth, cold by construction
}

// factor factors T − λI, T with diagonal d and off-diagonal e, and
// returns the pivot tolerance solve perturbs tiny pivots by: ε times the
// largest entry of U (dlagts with tol ≤ 0). It compares the candidate
// pivots' relative sizes by cross-multiplying where dlagtf divides.
//
//spotfi:noalloc
func (f *triLU) factor(d, e []float64, lambda float64) float64 {
	n := len(d)
	a, b, l, u2, swap := f.a[:n], f.b[:n], f.l[:n], f.u2[:n], f.swap[:n]
	for i, v := range d {
		a[i] = v - lambda
	}
	copy(b, e)
	copy(l, e)
	scale1 := math.Abs(a[0]) + math.Abs(b[0])
	for k := 0; k < n-1; k++ {
		scale2 := math.Abs(l[k]) + math.Abs(a[k+1])
		if k < n-2 {
			scale2 += math.Abs(b[k+1])
		}
		u2[k] = 0
		swap[k] = false
		if l[k] == 0 {
			scale1 = scale2
			continue
		}
		// dlagtf keeps the pivot when |l|/scale2 ≤ |a|/scale1.
		if a[k] != 0 && math.Abs(l[k])*scale1 <= math.Abs(a[k])*scale2 {
			scale1 = scale2
			l[k] /= a[k]
			a[k+1] -= l[k] * b[k]
			continue
		}
		swap[k] = true
		mult := a[k] / l[k]
		a[k] = l[k]
		tmp := a[k+1]
		a[k+1] = b[k] - mult*tmp
		if k < n-2 {
			u2[k] = b[k+1]
			b[k+1] = -mult * u2[k]
		}
		b[k] = tmp
		l[k] = mult
	}
	var tol float64
	for k, v := range a {
		x := math.Abs(v)
		if k < n-1 {
			x = max(x, math.Abs(b[k]))
		}
		if k < n-2 {
			x = max(x, math.Abs(u2[k]))
		}
		if x > tol {
			tol = x
		}
		f.inv[k] = 0
		if math.Abs(v) >= 0x1p-500 {
			f.inv[k] = 1 / v
		}
	}
	if tol *= eps; tol == 0 {
		tol = eps
	}
	return tol
}

// solve overwrites y with the solution of (T − λI)·x = y, perturbing any
// pivot small enough to overflow the quotient by ±tol, doubled until it
// is not (LAPACK dlagts, job −1). A pivot of at least 2⁻⁵⁰⁰ meeting a
// numerator below 2⁵⁰⁰ cannot overflow and is applied as a reciprocal.
//
//spotfi:noalloc
func (f *triLU) solve(y []float64, tol float64) {
	const sfmin = 0x1p-1022
	const bignum = 1 / sfmin
	n := len(y)
	for k := 1; k < n; k++ {
		if !f.swap[k-1] {
			y[k] -= f.l[k-1] * y[k-1]
		} else {
			y[k-1], y[k] = y[k], y[k-1]-f.l[k-1]*y[k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		temp := y[k]
		if k <= n-2 {
			temp -= f.b[k] * y[k+1]
		}
		if k <= n-3 {
			temp -= f.u2[k] * y[k+2]
		}
		if inv := f.inv[k]; inv != 0 && math.Abs(temp) < 0x1p500 {
			y[k] = temp * inv
			continue
		}
		// Nudge a pivot that would overflow the quotient: the i-th nudge
		// adds 2^(i−1)·tol, away from zero, as dlagts doubles it.
		ak, pert := f.a[k], math.Copysign(tol, f.a[k])
		for i := 1; ; i++ {
			absak := math.Abs(ak)
			if absak >= 1 {
				break
			}
			if absak < sfmin {
				if absak != 0 && math.Abs(temp)*sfmin <= absak {
					temp *= bignum
					ak *= bignum
					break
				}
			} else if math.Abs(temp) <= absak*bignum {
				break
			}
			ak = f.a[k] + pert*(math.Ldexp(1, i)-1)
		}
		y[k] = temp / ak
	}
}

//spotfi:noalloc
func maxAbsIndex(x []float64) int {
	best, idx := -1.0, 0
	for i, v := range x {
		if a := math.Abs(v); a > best {
			best, idx = a, i
		}
	}
	return idx
}

//spotfi:noalloc
func scaleVec(x []float64, s float64) {
	for i := range x {
		x[i] *= s
	}
}
