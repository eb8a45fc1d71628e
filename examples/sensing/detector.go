package main

import (
	"fmt"
	"math"

	"spotfi/internal/csi"
)

// DetectorConfig tunes the detector.
type DetectorConfig struct {
	// Window is the number of packets per decision.
	Window int
	// Threshold is the mean decorrelation score above which a window is
	// declared to contain motion. Static links score ≲0.02 (noise and
	// quantization, SNR-dependent); a person moving near the link scores
	// an order of magnitude higher.
	Threshold float64
}

// DefaultDetectorConfig returns a detector tuned for the simulated testbed
// links.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{Window: 10, Threshold: 0.08}
}

// Validate checks the configuration.
func (c DetectorConfig) Validate() error {
	if c.Window < 2 {
		return fmt.Errorf("sense: window must be ≥ 2 packets")
	}
	if c.Threshold <= 0 {
		return fmt.Errorf("sense: threshold must be positive")
	}
	return nil
}

// Decision is one completed window.
type Decision struct {
	// Score is the mean amplitude decorrelation 1 − ρ over the window.
	Score float64
	// Motion reports whether Score exceeded the threshold.
	Motion bool
	// Packets is the number of packet pairs scored.
	Packets int
}

// Detector implements device-free motion detection from CSI. A static
// link's CSI amplitude profile is stable packet to packet; people moving
// near the link perturb the reflected paths and decorrelate it. The
// detector scores consecutive packets by amplitude decorrelation and flags
// windows whose mean score exceeds a threshold.
//
// Amplitudes are used rather than raw complex CSI because the per-packet
// sampling time offset rotates the phases arbitrarily (Sec. 3.2) while
// leaving |csi| untouched, so amplitude correlation isolates genuine
// channel change.
//
// A Detector accumulates CSI packets from one link and emits a Decision
// per full window. It is not safe for concurrent use.
type Detector struct {
	cfg  DetectorConfig
	prev []float64

	scores []float64
}

// NewDetector returns a Detector.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Add ingests one CSI matrix. When a window completes it returns the
// Decision and true.
func (d *Detector) Add(c *csi.Matrix) (Decision, bool, error) {
	if c == nil {
		return Decision{}, false, fmt.Errorf("sense: nil CSI")
	}
	if err := c.Validate(); err != nil {
		return Decision{}, false, err
	}
	amp := amplitudes(c)
	if d.prev != nil {
		if len(amp) != len(d.prev) {
			return Decision{}, false, fmt.Errorf("sense: CSI shape changed mid-stream")
		}
		d.scores = append(d.scores, 1-correlation(d.prev, amp))
	}
	d.prev = amp

	if len(d.scores) >= d.cfg.Window-1 {
		var sum float64
		for _, s := range d.scores {
			sum += s
		}
		dec := Decision{
			Score:   sum / float64(len(d.scores)),
			Packets: len(d.scores),
		}
		dec.Motion = dec.Score > d.cfg.Threshold
		d.scores = d.scores[:0]
		return dec, true, nil
	}
	return Decision{}, false, nil
}

// Reset clears the detector state (e.g. after a stream gap).
func (d *Detector) Reset() {
	d.prev = nil
	d.scores = d.scores[:0]
}

// amplitudes flattens |csi| into one vector.
func amplitudes(c *csi.Matrix) []float64 {
	out := make([]float64, 0, c.Antennas()*c.Subcarriers())
	for _, row := range c.Values {
		for _, v := range row {
			out = append(out, math.Hypot(real(v), imag(v)))
		}
	}
	return out
}

// correlation returns the Pearson correlation of two amplitude vectors,
// clamped to [0, 1] (anticorrelation counts as full decorrelation).
func correlation(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var num, da, db float64
	for i := range a {
		x := a[i] - ma
		y := b[i] - mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da <= 0 || db <= 0 {
		return 0
	}
	rho := num / math.Sqrt(da*db)
	if rho < 0 {
		return 0
	}
	if rho > 1 {
		return 1
	}
	return rho
}
