// Tracking: follow a target moving through the office.
//
// The target walks a rectangular patrol route; at each waypoint it
// transmits a short burst, SpotFi localizes it, and a constant-velocity
// Kalman filter (kalman.go) fuses the fixes into a motion track —
// the "motion tracing" application the paper's conclusion points to.
//
//	go run ./examples/tracking [-steps N] [-packets N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"spotfi"
	"spotfi/internal/geom"
	"spotfi/internal/sim"
	"spotfi/internal/stats"
	"spotfi/internal/testbed"
)

func main() {
	steps := flag.Int("steps", 16, "waypoints along the route")
	packets := flag.Int("packets", 10, "packets per waypoint burst")
	flag.Parse()

	d := testbed.Office(7)
	aps := make([]spotfi.AP, len(d.APs))
	for i, ap := range d.APs {
		aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	loc, err := spotfi.New(spotfi.DefaultConfig(d.Bounds), aps)
	if err != nil {
		log.Fatal(err)
	}

	// Rectangular patrol route inside the office.
	route := patrol(*steps)

	var raw, smooth []float64
	tracker, err := NewFilter(DefaultFilterConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-16s %-16s %-16s %8s %8s\n",
		"step", "truth", "fix", "track", "fixErr", "trkErr")
	for i, truth := range route {
		bursts := make(map[int][]*spotfi.Packet)
		for a := range d.APs {
			link := sim.NewLink(d.Env, d.APs[a], truth, d.LinkCfg,
				rand.New(rand.NewSource(int64(1000*i+a))))
			syn, err := sim.NewSynthesizer(link, d.Band, d.Array, d.Imp,
				rand.New(rand.NewSource(int64(2000*i+a))))
			if err != nil {
				continue
			}
			bursts[a] = syn.Burst("02:walker", *packets)
		}
		fix, _, _, err := loc.LocalizeBursts(bursts)
		if err != nil {
			fmt.Printf("%-6d lost (%v)\n", i, err)
			continue
		}
		// Kalman update: each waypoint is ~2 s apart.
		state, err := tracker.Update(Fix{T: 2 * float64(i), Pos: fix.Point})
		if err != nil {
			log.Fatal(err)
		}
		tracked := state.Pos
		fe := fix.Dist(truth)
		te := tracked.Dist(truth)
		raw = append(raw, fe)
		smooth = append(smooth, te)
		fmt.Printf("%-6d (%5.2f, %5.2f)  (%5.2f, %5.2f)  (%5.2f, %5.2f)  %7.2fm %7.2fm\n",
			i, truth.X, truth.Y, fix.X, fix.Y, tracked.X, tracked.Y, fe, te)
	}
	fmt.Printf("\nraw fixes : median %.2f m, p80 %.2f m\n",
		stats.Median(raw), stats.Percentile(raw, 80))
	fmt.Printf("tracked   : median %.2f m, p80 %.2f m\n",
		stats.Median(smooth), stats.Percentile(smooth, 80))
}

// patrol returns n waypoints around a rectangle in the open office area.
func patrol(n int) []geom.Point {
	corners := []geom.Point{{X: 3, Y: 3}, {X: 13, Y: 3}, {X: 13, Y: 7}, {X: 3, Y: 7}}
	pts := make([]geom.Point, 0, n)
	perim := 0.0
	for i := range corners {
		perim += corners[i].Dist(corners[(i+1)%4])
	}
	for k := 0; k < n; k++ {
		s := perim * float64(k) / float64(n)
		for i := range corners {
			a, b := corners[i], corners[(i+1)%4]
			leg := a.Dist(b)
			if s <= leg || i == 3 {
				t := math.Min(s/leg, 1)
				pts = append(pts, geom.Point{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)})
				break
			}
			s -= leg
		}
	}
	return pts
}
