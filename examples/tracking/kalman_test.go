package main

import (
	"math"
	"math/rand"
	"testing"

	"spotfi/internal/geom"
)

func TestConfigValidate(t *testing.T) {
	bad := []FilterConfig{
		{ProcessNoiseAccel: 0, MeasurementStdM: 1},
		{ProcessNoiseAccel: 1, MeasurementStdM: 0},
		{ProcessNoiseAccel: 1, MeasurementStdM: 1, GateSigma: -1},
	}
	for i, c := range bad {
		if _, err := NewFilter(c); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	if _, err := NewFilter(DefaultFilterConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFixInitializes(t *testing.T) {
	f, _ := NewFilter(DefaultFilterConfig())
	s, err := f.Update(Fix{T: 0, Pos: geom.Point{X: 3, Y: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pos != (geom.Point{X: 3, Y: 4}) {
		t.Fatalf("initial pos %v", s.Pos)
	}
	if s.Vel != (geom.Vector{}) {
		t.Fatalf("initial velocity %v, want zero", s.Vel)
	}
	if !s.Accepted {
		t.Fatal("first fix not accepted")
	}
}

func TestStationaryTargetConverges(t *testing.T) {
	// A near-static motion model: the filter should average the noise
	// down instead of staying responsive to maneuvers.
	f, _ := NewFilter(FilterConfig{ProcessNoiseAccel: 0.05, MeasurementStdM: 0.8, GateSigma: 4})
	rng := rand.New(rand.NewSource(1))
	truth := geom.Point{X: 5, Y: 5}
	var mx, my, vx, vy float64
	tail := 0
	for i := 0; i < 240; i++ {
		s, err := f.Update(Fix{
			T:   float64(i),
			Pos: geom.Point{X: truth.X + rng.NormFloat64()*0.8, Y: truth.Y + rng.NormFloat64()*0.8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i >= 120 {
			mx += s.Pos.X
			my += s.Pos.Y
			vx += s.Vel.X
			vy += s.Vel.Y
			tail++
		}
	}
	n := float64(tail)
	est := geom.Point{X: mx / n, Y: my / n}
	if d := est.Dist(truth); d > 0.3 {
		t.Fatalf("tail-averaged estimate %v m from truth", d)
	}
	if math.Hypot(vx/n, vy/n) > 0.2 {
		t.Fatalf("stationary target has mean velocity (%.2f,%.2f)", vx/n, vy/n)
	}
}

func TestConstantVelocityTracked(t *testing.T) {
	f, _ := NewFilter(DefaultFilterConfig())
	rng := rand.New(rand.NewSource(2))
	vel := geom.Vector{X: 1.0, Y: 0.5}
	// Average the velocity estimate over the tail: a single sample sits
	// at the filter's steady-state uncertainty, the average converges.
	var vx, vy float64
	tail := 0
	for i := 0; i < 80; i++ {
		tt := float64(i) * 0.5
		truth := geom.Point{X: vel.X * tt, Y: vel.Y * tt}
		s, err := f.Update(Fix{
			T:   tt,
			Pos: geom.Point{X: truth.X + rng.NormFloat64()*0.5, Y: truth.Y + rng.NormFloat64()*0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i >= 40 {
			vx += s.Vel.X
			vy += s.Vel.Y
			tail++
		}
	}
	vx /= float64(tail)
	vy /= float64(tail)
	if math.Abs(vx-vel.X) > 0.25 || math.Abs(vy-vel.Y) > 0.25 {
		t.Fatalf("mean velocity estimate (%.2f,%.2f), want %v", vx, vy, vel)
	}
}

func TestTrackingBeatsRawFixes(t *testing.T) {
	f, _ := NewFilter(DefaultFilterConfig())
	rng := rand.New(rand.NewSource(3))
	var rawSum, trkSum float64
	n := 0
	for i := 0; i < 80; i++ {
		tt := float64(i) * 0.5
		truth := geom.Point{X: 1 + 0.8*tt, Y: 2 + 0.3*tt}
		fix := geom.Point{X: truth.X + rng.NormFloat64()*1.0, Y: truth.Y + rng.NormFloat64()*1.0}
		s, err := f.Update(Fix{T: tt, Pos: fix})
		if err != nil {
			t.Fatal(err)
		}
		if i >= 10 { // after warm-up
			rawSum += fix.Dist(truth)
			trkSum += s.Pos.Dist(truth)
			n++
		}
	}
	if trkSum >= rawSum {
		t.Fatalf("track mean %.2f not better than raw %.2f", trkSum/float64(n), rawSum/float64(n))
	}
}

func TestGateRejectsOutlier(t *testing.T) {
	f, _ := NewFilter(DefaultFilterConfig())
	for i := 0; i < 10; i++ {
		if _, err := f.Update(Fix{T: float64(i), Pos: geom.Point{X: 1, Y: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := f.Update(Fix{T: 10, Pos: geom.Point{X: 40, Y: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Accepted {
		t.Fatal("40 m jump accepted")
	}
	if s.Pos.Dist(geom.Point{X: 1, Y: 1}) > 1 {
		t.Fatalf("rejected fix moved the track to %v", s.Pos)
	}
	acc, rej := f.Stats()
	if rej != 1 || acc != 10 {
		t.Fatalf("stats = %d/%d", acc, rej)
	}
}

func TestGateDisabled(t *testing.T) {
	cfg := DefaultFilterConfig()
	cfg.GateSigma = 0
	f, _ := NewFilter(cfg)
	if _, err := f.Update(Fix{T: 0, Pos: geom.Point{X: 1, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	s, err := f.Update(Fix{T: 1, Pos: geom.Point{X: 40, Y: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Accepted {
		t.Fatal("gating disabled but fix rejected")
	}
}

func TestPerFixNoiseOverride(t *testing.T) {
	// A very trusted fix should pull the state harder than a default one.
	mk := func(std float64) geom.Point {
		f, _ := NewFilter(DefaultFilterConfig())
		f.Update(Fix{T: 0, Pos: geom.Point{X: 0, Y: 0}})
		f.Update(Fix{T: 1, Pos: geom.Point{X: 0, Y: 0}})
		s, _ := f.Update(Fix{T: 2, Pos: geom.Point{X: 2, Y: 0}, StdM: std})
		return s.Pos
	}
	trusted := mk(0.05)
	vague := mk(3)
	if trusted.X <= vague.X {
		t.Fatalf("trusted fix (x=%v) should pull harder than vague (x=%v)", trusted.X, vague.X)
	}
}

func TestUpdateErrors(t *testing.T) {
	f, _ := NewFilter(DefaultFilterConfig())
	if _, err := f.Update(Fix{T: math.NaN(), Pos: geom.Point{X: 1, Y: 1}}); err == nil {
		t.Fatal("NaN time accepted")
	}
	if _, err := f.Update(Fix{T: 5, Pos: geom.Point{X: 1, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Update(Fix{T: 4, Pos: geom.Point{X: 1, Y: 1}}); err == nil {
		t.Fatal("time regression accepted")
	}
	if _, err := f.Update(Fix{T: 6, Pos: geom.Point{X: math.Inf(1), Y: 1}}); err == nil {
		t.Fatal("Inf position accepted")
	}
}

func TestPredict(t *testing.T) {
	f, _ := NewFilter(DefaultFilterConfig())
	if _, err := f.Predict(1); err == nil {
		t.Fatal("predict before init accepted")
	}
	// Establish a moving track.
	for i := 0; i < 30; i++ {
		tt := float64(i) * 0.5
		if _, err := f.Update(Fix{T: tt, Pos: geom.Point{X: tt, Y: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := f.Predict(16.5) // 2 s ahead of the last fix at 14.5
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Pos.X-16.5) > 0.7 {
		t.Fatalf("predicted x=%v, want ≈16.5", s.Pos.X)
	}
	// Prediction must not mutate the filter.
	s2, err := f.Update(Fix{T: 15, Pos: geom.Point{X: 15, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2.Pos.X-15) > 0.5 {
		t.Fatalf("filter state corrupted by Predict: %v", s2.Pos)
	}
	if _, err := f.Predict(10); err == nil {
		t.Fatal("predict into the past accepted")
	}
}

func TestUncertaintyGrowsWithoutFixes(t *testing.T) {
	f, _ := NewFilter(DefaultFilterConfig())
	f.Update(Fix{T: 0, Pos: geom.Point{X: 1, Y: 1}})
	f.Update(Fix{T: 1, Pos: geom.Point{X: 1, Y: 1}})
	near, err := f.Predict(2)
	if err != nil {
		t.Fatal(err)
	}
	far, err := f.Predict(10)
	if err != nil {
		t.Fatal(err)
	}
	if far.PosStd <= near.PosStd {
		t.Fatalf("uncertainty did not grow: %v vs %v", far.PosStd, near.PosStd)
	}
}
