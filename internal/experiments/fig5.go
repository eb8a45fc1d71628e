package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"spotfi/internal/cluster"
	"spotfi/internal/csi"
	"spotfi/internal/dpath"
	"spotfi/internal/geom"
	"spotfi/internal/music"
	"spotfi/internal/sanitize"
	"spotfi/internal/sim"
	"spotfi/internal/stats"
	"spotfi/internal/testbed"
)

// Fig5Sanitization reproduces Fig. 5(a)/(b): the per-packet sampling time
// offset adds a linear phase ramp that corrupts ToF estimates, and
// Algorithm 1 removes it. The operative claim ("the ToF parameters
// estimated across packets using modified CSI are free from variance of
// changing STO", Sec. 3.2.2) is measured directly: the two series are the
// strongest path's estimated ToF per packet with and without
// sanitization — the unsanitized ToFs wander with the STO, the sanitized
// ones are stable.
func Fig5Sanitization(opts Options) (*Result, error) {
	opts = opts.fill()
	d := testbed.Office(opts.Seed)
	// Fig. 5 is an illustration on a mild channel: a direct path plus one
	// wall reflection, static (no channel-dynamics jitter), observed with
	// per-packet STO. Deep-fade channels add genuine unwrap noise on top
	// of the STO effect — the clustering stage handles that — but for the
	// sanitization demonstration the mild channel isolates the claim.
	env := &sim.Environment{Walls: []sim.Wall{{
		Seg:           geom.Segment{A: geom.Point{X: -30, Y: 10}, B: geom.Point{X: 30, Y: 10}},
		LossDB:        14,
		ReflectLossDB: 6,
	}}}
	ap := sim.AP{ID: 0, Pos: geom.Point{X: 0, Y: 0}, NormalAngle: math.Pi / 4}
	target := geom.Point{X: 6, Y: 3}
	link := sim.NewLink(env, ap, target, d.LinkCfg, rand.New(rand.NewSource(opts.Seed+500)))
	imp := d.Imp
	imp.NonDirectAoAJitterRad = 0
	imp.NonDirectToFJitterNs = 0
	imp.NonDirectGainJitterDB = 0
	syn, err := sim.NewSynthesizer(link, d.Band, d.Array, imp, rand.New(rand.NewSource(opts.Seed+501)))
	if err != nil {
		return nil, err
	}
	packets := 20
	if opts.Packets < 10 {
		packets = 2 * opts.Packets
	}
	burst := syn.Burst(testbed.TargetMAC(0), packets)

	est, err := music.NewEstimator(music.DefaultParams())
	if err != nil {
		return nil, err
	}
	// Track the direct path across packets: the estimate whose AoA is
	// closest to the ground-truth direct AoA.
	truth := ap.AoATo(target)
	directToF := func(c *csi.Matrix) (float64, bool) {
		paths, err := est.EstimatePaths(c)
		if err != nil || len(paths) == 0 {
			return 0, false
		}
		best := paths[0]
		for _, p := range paths[1:] {
			if math.Abs(p.AoA-truth) < math.Abs(best.AoA-truth) {
				best = p
			}
		}
		return best.ToF * 1e9, true
	}

	var raw, clean []float64
	for _, pkt := range burst {
		if tof, ok := directToF(pkt.CSI.Clone()); ok {
			raw = append(raw, tof)
		}
		work := pkt.CSI.Clone()
		if _, err := sanitize.ToF(work, d.Band.SubcarrierSpacingHz); err != nil {
			continue
		}
		if tof, ok := directToF(work); ok {
			clean = append(clean, tof)
		}
	}
	if len(raw) < 2 || len(clean) < 2 {
		return nil, fmt.Errorf("experiments: fig5ab produced too few estimates")
	}
	return &Result{
		ID:    "fig5ab",
		Title: "ToF sanitization: strongest-path ToF across packets",
		Unit:  "ns",
		Series: []Series{
			{Label: "unsanitized-tof", Values: raw},
			{Label: "sanitized-tof", Values: clean},
		},
		Notes: fmt.Sprintf("tof stddev: unsanitized %.2f ns, sanitized %.2f ns\n",
			stats.StdDev(raw), stats.StdDev(clean)),
	}, nil
}

// Fig5cClusters reproduces Fig. 5(c): (AoA, ToF) estimates from 170
// packets of one link form clusters; the direct path's cluster is tight
// and SpotFi's likelihood metric selects it. The series are per-cluster
// AoA spreads; Notes carries the cluster table and the selection outcome.
func Fig5cClusters(opts Options) (*Result, error) {
	opts = opts.fill()
	d := testbed.Office(opts.Seed)
	const apIdx, targetIdx = 0, 0
	packets := 170
	if opts.Packets != 40 { // caller overrode the default: scale down
		packets = opts.Packets
	}
	burst, err := d.Burst(apIdx, targetIdx, packets)
	if err != nil {
		return nil, err
	}
	est, err := music.NewEstimator(music.DefaultParams())
	if err != nil {
		return nil, err
	}
	perPacket := sanitizedEstimates(d, est, burst)
	if len(perPacket) == 0 {
		return nil, fmt.Errorf("experiments: no packets survived estimation")
	}
	cfg := dpath.DefaultConfig()
	cfg.Cluster = cluster.Config{K: 5, MaxIters: 100, Restarts: 8}
	res, err := dpath.Identify(perPacket, cfg, opts.Seed*1_000_003+5*7919)
	if err != nil {
		return nil, err
	}

	truth := d.GroundTruthAoA(apIdx, targetIdx)
	best, _ := res.Best()

	var notes strings.Builder
	fmt.Fprintf(&notes, "ground-truth direct AoA: %.1f°\n", geom.Deg(truth))
	fmt.Fprintf(&notes, "%-8s %10s %10s %8s %12s %12s %12s\n",
		"cluster", "aoa(deg)", "tof(ns)", "count", "var-aoa", "var-tof", "likelihood")
	series := make([]Series, 0, len(res.Candidates))
	for i, c := range res.Candidates {
		fmt.Fprintf(&notes, "%-8d %10.1f %10.1f %8d %12.5f %12.5f %12.4g\n",
			i, geom.Deg(c.AoA), c.ToF*1e9, c.Count, c.AoAVar, c.ToFVar, c.Likelihood)
		series = append(series, Series{
			Label:  fmt.Sprintf("cluster-%d-aoa-spread", i),
			Values: []float64{math.Sqrt(c.AoAVar)},
		})
	}
	fmt.Fprintf(&notes, "selected direct path: %.1f° (error %.1f°)\n",
		geom.Deg(best.AoA), geom.Deg(math.Abs(best.AoA-truth)))

	return &Result{
		ID:     "fig5c",
		Title:  fmt.Sprintf("ToF-AoA clusters from %d packets", packets),
		Unit:   "normalized AoA spread",
		Series: series,
		Notes:  notes.String(),
	}, nil
}
