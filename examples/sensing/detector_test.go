package main

import (
	"math"
	"testing"

	"spotfi/internal/csi"
)

func linkPackets(t *testing.T, moving bool, n int, seed int64) []*csi.Packet {
	t.Helper()
	pkts, err := burst(moving, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

func runWindows(t *testing.T, d *Detector, pkts []*csi.Packet) []Decision {
	t.Helper()
	var out []Decision
	for _, p := range pkts {
		dec, done, err := d.Add(p.CSI)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			out = append(out, dec)
		}
	}
	return out
}

func TestDetectorStaticLinkQuiet(t *testing.T) {
	d, err := NewDetector(DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	decs := runWindows(t, d, linkPackets(t, false, 40, 151))
	if len(decs) == 0 {
		t.Fatal("no decisions")
	}
	for i, dec := range decs {
		if dec.Motion {
			t.Fatalf("window %d flagged motion on a static link (score %.4f)", i, dec.Score)
		}
	}
}

func TestDetectorFlagsMotion(t *testing.T) {
	d, err := NewDetector(DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	decs := runWindows(t, d, linkPackets(t, true, 40, 152))
	if len(decs) == 0 {
		t.Fatal("no decisions")
	}
	flagged := 0
	for _, dec := range decs {
		if dec.Motion {
			flagged++
		}
	}
	if flagged < len(decs) {
		t.Fatalf("only %d/%d moving windows flagged", flagged, len(decs))
	}
}

func TestDetectorScoreSeparation(t *testing.T) {
	d1, _ := NewDetector(DefaultDetectorConfig())
	d2, _ := NewDetector(DefaultDetectorConfig())
	static := runWindows(t, d1, linkPackets(t, false, 40, 153))
	moving := runWindows(t, d2, linkPackets(t, true, 40, 153))
	var s, m float64
	for _, dec := range static {
		s += dec.Score
	}
	for _, dec := range moving {
		m += dec.Score
	}
	s /= float64(len(static))
	m /= float64(len(moving))
	t.Logf("mean score: static %.5f, moving %.5f (%.0f×)", s, m, m/s)
	if m < 3*s {
		t.Fatalf("insufficient separation: static %.5f vs moving %.5f", s, m)
	}
}

func TestDetectorTransitions(t *testing.T) {
	// Static → moving → static: decisions must follow.
	d, _ := NewDetector(DefaultDetectorConfig())
	var seq []Decision
	seq = append(seq, runWindows(t, d, linkPackets(t, false, 20, 154))...)
	d.Reset()
	seq = append(seq, runWindows(t, d, linkPackets(t, true, 20, 155))...)
	d.Reset()
	seq = append(seq, runWindows(t, d, linkPackets(t, false, 20, 156))...)
	if len(seq) < 6 {
		t.Fatalf("expected ≥6 windows, got %d", len(seq))
	}
	third := len(seq) / 3
	for i, dec := range seq {
		wantMotion := i >= third && i < 2*third
		if dec.Motion != wantMotion {
			t.Fatalf("window %d: motion=%v, want %v (score %.4f)", i, dec.Motion, wantMotion, dec.Score)
		}
	}
}

func TestDetectorErrors(t *testing.T) {
	if _, err := NewDetector(DetectorConfig{Window: 1, Threshold: 0.01}); err == nil {
		t.Fatal("window 1 accepted")
	}
	if _, err := NewDetector(DetectorConfig{Window: 5, Threshold: 0}); err == nil {
		t.Fatal("zero threshold accepted")
	}
	d, _ := NewDetector(DefaultDetectorConfig())
	if _, _, err := d.Add(nil); err == nil {
		t.Fatal("nil CSI accepted")
	}
	bad := csi.NewMatrix(2, 2)
	bad.Values[0][0] = complex(math.NaN(), 0)
	if _, _, err := d.Add(bad); err == nil {
		t.Fatal("NaN CSI accepted")
	}
	// Shape change mid-stream.
	if _, _, err := d.Add(csi.NewMatrix(3, 30)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Add(csi.NewMatrix(2, 30)); err == nil {
		t.Fatal("shape change accepted")
	}
}

func TestCorrelationProperties(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if c := correlation(a, a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self-correlation %v", c)
	}
	b := []float64{4, 3, 2, 1} // perfectly anticorrelated → clamped to 0
	if c := correlation(a, b); c != 0 {
		t.Fatalf("anticorrelation clamp: %v", c)
	}
	flat := []float64{2, 2, 2, 2} // zero variance
	if c := correlation(a, flat); c != 0 {
		t.Fatalf("degenerate correlation: %v", c)
	}
}
