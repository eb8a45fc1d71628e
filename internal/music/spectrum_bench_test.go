package music

import (
	"math/rand"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/rf"
)

// benchScene synthesizes a moderately hard 3-path packet for the spectrum
// benchmarks: a direct path plus two reflections, with noise.
func benchScene(seed int64) *csi.Matrix {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	paths := []PathEstimate{
		{AoA: 0.3, ToF: 15e-9},
		{AoA: -0.5, ToF: 55e-9},
		{AoA: 0.9, ToF: 95e-9},
	}
	gains := []complex128{1, 0.6 + 0.2i, 0.35 - 0.1i}
	c := buildCSI(band, array, paths, gains)
	addNoise(c, 0.05, rand.New(rand.NewSource(seed)))
	return c
}

// BenchmarkSpectrumSweep is the production configuration: streaming
// sweep, shared steering table, warm estimator arenas. It reports the
// mean denominators evaluated per estimate as cells/op. CI gates its
// allocations, reading them from the last two columns.
func BenchmarkSpectrumSweep(b *testing.B) {
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	c := benchScene(1)
	// One untimed estimate grows the workspace arenas, so the timed loop
	// measures the steady state the alloc gate bounds.
	if _, _, err := e.EstimatePathsDiag(c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	cells := 0
	for i := 0; i < b.N; i++ {
		_, d, err := e.EstimatePathsDiag(c)
		if err != nil {
			b.Fatal(err)
		}
		cells += d.CellsSwept
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}

// BenchmarkSpectrumColdEstimator includes per-call estimator construction
// (steering table served from the shared cache) and a cold eigen
// workspace — the cost a pool miss pays.
func BenchmarkSpectrumColdEstimator(b *testing.B) {
	p := DefaultParams()
	c := benchScene(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEstimator(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.EstimatePaths(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectrumVaryingPackets feeds a stream of 16 different noisy
// packets of the same scene through one estimator, the shape of a burst.
// Nothing numerical carries from one packet to the next (TopEigenInto
// starts every call from the same block), so it measures what
// BenchmarkSpectrumSweep does, averaged over packets. It reports cells/op
// like BenchmarkSpectrumSweep.
func BenchmarkSpectrumVaryingPackets(b *testing.B) {
	e, err := NewEstimator(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	const packets = 16
	cs := make([]*csi.Matrix, packets)
	for i := range cs {
		cs[i] = benchScene(int64(i + 1))
		// Untimed warm-up over every packet: the arenas reach the size
		// the largest packet needs before timing starts.
		if _, _, err := e.EstimatePathsDiag(cs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	cells := 0
	for i := 0; i < b.N; i++ {
		_, d, err := e.EstimatePathsDiag(cs[i%packets])
		if err != nil {
			b.Fatal(err)
		}
		cells += d.CellsSwept
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}
