package music

import (
	"encoding/binary"
	"math"
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
		_ = checkAgainstReference(t, e, c, false) // an error is an allowed outcome
	})
}
