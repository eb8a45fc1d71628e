package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func almostEqual(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestNewDimensionsAndZeroValue(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromSliceRoundTrip(t *testing.T) {
	data := []complex128{1, 2i, 3, 4 + 4i, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(0, 1) != 2i || m.At(1, 0) != 4+4i {
		t.Fatalf("unexpected layout: %v", m)
	}
	// FromSlice must copy.
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromSlice did not copy its input")
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []complex128{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]complex128{{1, 2}, {3}})
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := FromRows([][]complex128{{1, 2i}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8i}})
	got := a.Mul(b)
	want := FromRows([][]complex128{
		{5 + 14i, 6 - 16},
		{43, 18 + 32i},
	})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEqual(got.At(i, j), want.At(i, j), 1e-12) {
				t.Fatalf("(%d,%d): got %v want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 7)
	i5, i7 := New(5, 5), New(7, 7)
	i5.SetIdentity()
	i7.SetIdentity()
	left := i5.Mul(a)
	right := a.Mul(i7)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if !almostEqual(left.At(i, j), a.At(i, j), 1e-12) || !almostEqual(right.At(i, j), a.At(i, j), 1e-12) {
				t.Fatal("identity multiplication changed the matrix")
			}
		}
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestConjTranspose(t *testing.T) {
	a := FromRows([][]complex128{{1 + 1i, 2}, {3i, 4 - 2i}, {5, 6}})
	h := a.ConjTranspose()
	if h.Rows() != 2 || h.Cols() != 3 {
		t.Fatalf("got %dx%d, want 2x3", h.Rows(), h.Cols())
	}
	if h.At(0, 0) != 1-1i || h.At(0, 1) != -3i || h.At(1, 1) != 4+2i {
		t.Fatalf("bad conjugate transpose: %v", h)
	}
}

func TestGramMatchesExplicitProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 6, 9)
	got := a.Gram()
	want := a.Mul(a.ConjTranspose())
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !almostEqual(got.At(i, j), want.At(i, j), 1e-10) {
				t.Fatalf("Gram (%d,%d): got %v want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	if !got.IsHermitian(0) {
		t.Fatal("Gram result is not exactly Hermitian")
	}
}

func TestGramDiagonalRealNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 4, 5)
	g := a.Gram()
	for i := 0; i < 4; i++ {
		d := g.At(i, i)
		if imag(d) != 0 || real(d) < 0 {
			t.Fatalf("diagonal %d = %v, want real non-negative", i, d)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	sum := a.Add(b)
	if sum.At(1, 1) != 12 {
		t.Fatalf("Add: %v", sum.At(1, 1))
	}
	diff := sum.Sub(b)
	if diff.At(1, 1) != 4 {
		t.Fatalf("Sub: %v", diff.At(1, 1))
	}
	sc := a.Scale(2i)
	if sc.At(0, 1) != 4i {
		t.Fatalf("Scale: %v", sc.At(0, 1))
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	got := a.MulVec([]complex128{1i, 1})
	if got[0] != 2+1i || got[1] != 4+3i {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestRowColCopySemantics(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	r := a.Row(0)
	r[0] = 99
	if a.At(0, 0) != 1 {
		t.Fatal("Row returned a live reference")
	}
	c := a.Col(1)
	c[0] = 99
	if a.At(0, 1) != 2 {
		t.Fatal("Col returned a live reference")
	}
}

func TestSetCol(t *testing.T) {
	a := New(2, 2)
	a.SetCol(1, []complex128{7, 8})
	if a.At(0, 1) != 7 || a.At(1, 1) != 8 {
		t.Fatalf("SetCol failed: %v", a)
	}
}

func TestTraceAndNorm(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4i}})
	if a.Trace() != 1+4i {
		t.Fatalf("Trace = %v", a.Trace())
	}
	want := math.Sqrt(1 + 4 + 9 + 16)
	if math.Abs(a.FrobeniusNorm()-want) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v, want %v", a.FrobeniusNorm(), want)
	}
}

func TestIsHermitian(t *testing.T) {
	h := FromRows([][]complex128{{2, 1 + 1i}, {1 - 1i, 3}})
	if !h.IsHermitian(1e-15) {
		t.Fatal("Hermitian matrix misclassified")
	}
	nh := FromRows([][]complex128{{2, 1 + 1i}, {1 + 1i, 3}})
	if nh.IsHermitian(1e-15) {
		t.Fatal("non-Hermitian matrix misclassified")
	}
	if New(2, 3).IsHermitian(1) {
		t.Fatal("non-square matrix cannot be Hermitian")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestStringContainsDims(t *testing.T) {
	s := New(2, 3).String()
	if len(s) == 0 || s[:3] != "2x3" {
		t.Fatalf("String() = %q", s)
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return m
}

func randomHermitian(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n)
	return a.Gram()
}

func TestReshapeReusesCapacity(t *testing.T) {
	m := New(6, 8)
	m.Set(0, 0, 3)
	r := Reshape(m, 4, 4) // fits in 48 elements: same object, zeroed
	if r != m {
		t.Fatal("Reshape allocated despite sufficient capacity")
	}
	if r.Rows() != 4 || r.Cols() != 4 {
		t.Fatalf("Reshape dims %dx%d, want 4x4", r.Rows(), r.Cols())
	}
	if r.At(0, 0) != 0 {
		t.Fatal("Reshape did not zero the content")
	}
	big := Reshape(m, 10, 10) // exceeds capacity: fresh storage
	big.Set(9, 9, 1)
	if m.Rows() == 10 && m.Cols() == 10 && big == m {
		t.Fatal("Reshape should have allocated a larger matrix")
	}
	if nilGrown := Reshape(nil, 2, 3); nilGrown.Rows() != 2 || nilGrown.Cols() != 3 {
		t.Fatal("Reshape(nil) did not allocate")
	}
}

func TestGramIntoMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomMatrix(rng, 5, 7)
	want := a.Gram()
	got := a.GramInto(New(5, 5))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if !almostEqual(got.At(i, j), want.At(i, j), 1e-12) {
				t.Fatalf("GramInto (%d,%d): got %v want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestSetIdentity(t *testing.T) {
	m := New(3, 3)
	m.Set(1, 2, 5)
	m.SetIdentity()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("SetIdentity (%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}
