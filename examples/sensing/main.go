// Sensing: device-free motion detection from CSI.
//
// No device on the moving person — an existing WiFi link between a
// stationary transmitter and an AP acts as the sensor. When someone walks
// near the link, the reflected paths change packet to packet and the CSI
// amplitude profile decorrelates; the Detector (detector.go) flags it.
// This is the first of the paper's future-work applications (Sec. 5).
//
//	go run ./examples/sensing
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spotfi/internal/csi"
	"spotfi/internal/geom"
	"spotfi/internal/rf"
	"spotfi/internal/sim"
)

// burst synthesizes n packets on a fixed multipath link; moving toggles
// the per-packet reflector jitter that models people near the link.
func burst(moving bool, n int, seed int64) ([]*csi.Packet, error) {
	band := rf.DefaultBand()
	array := rf.DefaultArray(band)
	env := &sim.Environment{
		Walls: []sim.Wall{{
			Seg:           geom.Segment{A: geom.Point{X: -20, Y: 6}, B: geom.Point{X: 20, Y: 6}},
			LossDB:        14,
			ReflectLossDB: 5,
		}},
		Scatterers: []sim.Scatterer{{Pos: geom.Point{X: 3, Y: 4}, LossDB: 10}},
	}
	rng := rand.New(rand.NewSource(seed))
	link := sim.NewLink(env, sim.AP{Pos: geom.Point{X: 0, Y: 0}, NormalAngle: 0.3},
		geom.Point{X: 6, Y: 1}, sim.DefaultLinkConfig(), rng)
	imp := sim.DefaultImpairments()
	if moving {
		imp.NonDirectAoAJitterRad = 0.1
		imp.NonDirectToFJitterNs = 6
		imp.NonDirectGainJitterDB = 4
	} else {
		imp.NonDirectAoAJitterRad = 0
		imp.NonDirectToFJitterNs = 0
		imp.NonDirectGainJitterDB = 0
	}
	syn, err := sim.NewSynthesizer(link, band, array, imp, rng)
	if err != nil {
		return nil, err
	}
	return syn.Burst("sense", n), nil
}

func main() {
	det, err := NewDetector(DefaultDetectorConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A timeline: empty room, someone walks through, empty again.
	phases := []struct {
		name    string
		moving  bool
		packets int
	}{
		{"room empty", false, 30},
		{"person walking", true, 30},
		{"room empty again", false, 30},
	}

	fmt.Printf("%-20s %-8s %s\n", "phase", "score", "decision")
	for _, ph := range phases {
		det.Reset()
		pkts, err := burst(ph.moving, ph.packets, int64(len(ph.name)))
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range pkts {
			dec, done, err := det.Add(p.CSI)
			if err != nil {
				log.Fatal(err)
			}
			if done {
				verdict := "still"
				if dec.Motion {
					verdict = "MOTION"
				}
				fmt.Printf("%-20s %-8.4f %s\n", ph.name, dec.Score, verdict)
			}
		}
	}
}
