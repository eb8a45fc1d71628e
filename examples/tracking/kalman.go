package main

import (
	"fmt"
	"math"

	"spotfi/internal/geom"
)

// FilterConfig sets the filter dynamics.
type FilterConfig struct {
	// ProcessNoiseAccel is the white-acceleration spectral density
	// (m/s²·√Hz): how hard the target is allowed to maneuver.
	ProcessNoiseAccel float64
	// MeasurementStdM is the default per-fix position noise σ (meters),
	// used when a fix does not carry its own.
	MeasurementStdM float64
	// GateSigma rejects fixes whose Mahalanobis distance from the
	// predicted position exceeds this many standard deviations (0
	// disables gating).
	GateSigma float64
}

// DefaultFilterConfig returns dynamics suited to a walking target
// (≤2 m/s).
func DefaultFilterConfig() FilterConfig {
	return FilterConfig{ProcessNoiseAccel: 0.4, MeasurementStdM: 0.8, GateSigma: 4}
}

// Validate checks the configuration.
func (c FilterConfig) Validate() error {
	if c.ProcessNoiseAccel <= 0 {
		return fmt.Errorf("track: process noise must be positive")
	}
	if c.MeasurementStdM <= 0 {
		return fmt.Errorf("track: measurement std must be positive")
	}
	if c.GateSigma < 0 {
		return fmt.Errorf("track: gate must be non-negative")
	}
	return nil
}

// Filter smooths a sequence of location fixes into a motion track: a
// constant-velocity Kalman filter in the plane over state [x y vx vy],
// with per-fix measurement noise (which callers can derive from the
// localization confidence) and a gating test that rejects fixes
// inconsistent with the track. The zero value is not usable; construct
// with NewFilter.
type Filter struct {
	cfg FilterConfig

	initialized bool
	lastT       float64

	// State mean and covariance.
	x [4]float64
	p [4][4]float64

	accepted, rejected int
}

// NewFilter returns a Filter with the given dynamics.
func NewFilter(cfg FilterConfig) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Filter{cfg: cfg}, nil
}

// Fix is one localization result with a timestamp.
type Fix struct {
	// T is the fix time in seconds (monotonic).
	T float64
	// Pos is the estimated position.
	Pos geom.Point
	// StdM optionally overrides the measurement noise for this fix
	// (0 = use the config default). Callers can derive it from the
	// localization likelihoods.
	StdM float64
}

// State is the filter output after an update.
type State struct {
	Pos geom.Point
	Vel geom.Vector
	// PosStd is the 1-σ position uncertainty (circular approximation).
	PosStd float64
	// Accepted reports whether the fix passed the gate and was fused.
	Accepted bool
}

// Update fuses one fix and returns the new state. Fixes must arrive in
// non-decreasing time order.
func (f *Filter) Update(fix Fix) (State, error) {
	if !finite(fix.Pos.X) || !finite(fix.Pos.Y) || !finite(fix.T) {
		return State{}, fmt.Errorf("track: non-finite fix")
	}
	if f.initialized && fix.T < f.lastT {
		return State{}, fmt.Errorf("track: fix at t=%v precedes t=%v", fix.T, f.lastT)
	}
	r := f.cfg.MeasurementStdM
	if fix.StdM > 0 {
		r = fix.StdM
	}
	r2 := r * r

	if !f.initialized {
		f.initialized = true
		f.lastT = fix.T
		f.x = [4]float64{fix.Pos.X, fix.Pos.Y, 0, 0}
		f.p = [4][4]float64{}
		f.p[0][0], f.p[1][1] = r2, r2
		// Unknown velocity: generous prior.
		f.p[2][2], f.p[3][3] = 4, 4
		f.accepted++
		return f.state(true), nil
	}

	dt := fix.T - f.lastT
	f.predict(dt)
	f.lastT = fix.T

	// Innovation and gate (position components only; x and y decouple in
	// the measurement model).
	iy := [2]float64{fix.Pos.X - f.x[0], fix.Pos.Y - f.x[1]}
	sxx := f.p[0][0] + r2
	syy := f.p[1][1] + r2
	maha := iy[0]*iy[0]/sxx + iy[1]*iy[1]/syy
	if f.cfg.GateSigma > 0 && maha > f.cfg.GateSigma*f.cfg.GateSigma {
		f.rejected++
		return f.state(false), nil
	}

	// Sequential scalar updates for the two position measurements.
	f.scalarUpdate(0, iy[0], r2)
	f.scalarUpdate(1, iy[1], r2)
	f.accepted++
	return f.state(true), nil
}

// predict advances the state by dt seconds under the constant-velocity
// model with white-acceleration process noise.
func (f *Filter) predict(dt float64) {
	if dt <= 0 {
		return
	}
	// x ← F·x with F = [[1,0,dt,0],[0,1,0,dt],[0,0,1,0],[0,0,0,1]].
	f.x[0] += dt * f.x[2]
	f.x[1] += dt * f.x[3]

	// P ← F·P·Fᵀ + Q.
	var np [4][4]float64
	fMat := [4][4]float64{
		{1, 0, dt, 0},
		{0, 1, 0, dt},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	var fp [4][4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				fp[i][j] += fMat[i][k] * f.p[k][j]
			}
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				np[i][j] += fp[i][k] * fMat[j][k]
			}
		}
	}
	q := f.cfg.ProcessNoiseAccel * f.cfg.ProcessNoiseAccel
	d3 := dt * dt * dt / 3
	d2 := dt * dt / 2
	for _, ax := range []int{0, 1} {
		v := ax + 2
		np[ax][ax] += q * d3
		np[ax][v] += q * d2
		np[v][ax] += q * d2
		np[v][v] += q * dt
	}
	f.p = np
}

// scalarUpdate applies a Kalman update for a scalar measurement of state
// component m with innovation innov and noise variance r2.
func (f *Filter) scalarUpdate(m int, innov, r2 float64) {
	s := f.p[m][m] + r2
	if s <= 0 {
		return
	}
	var k [4]float64
	for i := 0; i < 4; i++ {
		k[i] = f.p[i][m] / s
	}
	for i := 0; i < 4; i++ {
		f.x[i] += k[i] * innov
	}
	var np [4][4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			np[i][j] = f.p[i][j] - k[i]*f.p[m][j]
		}
	}
	f.p = np
}

func (f *Filter) state(accepted bool) State {
	return State{
		Pos:      geom.Point{X: f.x[0], Y: f.x[1]},
		Vel:      geom.Vector{X: f.x[2], Y: f.x[3]},
		PosStd:   math.Sqrt(math.Max(0, (f.p[0][0]+f.p[1][1])/2)),
		Accepted: accepted,
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Stats returns how many fixes were fused and how many the gate rejected.
func (f *Filter) Stats() (accepted, rejected int) {
	return f.accepted, f.rejected
}

// Predict returns the track extrapolated to time t without fusing a
// measurement (the filter state is not modified).
func (f *Filter) Predict(t float64) (State, error) {
	if !f.initialized {
		return State{}, fmt.Errorf("track: filter not initialized")
	}
	if t < f.lastT {
		return State{}, fmt.Errorf("track: cannot predict into the past")
	}
	clone := *f
	clone.predict(t - clone.lastT)
	return clone.state(true), nil
}
