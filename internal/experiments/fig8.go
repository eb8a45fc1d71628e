package experiments

import (
	"fmt"
	"math"

	"spotfi/internal/dpath"
	"spotfi/internal/geom"
	"spotfi/internal/music"
	"spotfi/internal/sanitize"
	"spotfi/internal/testbed"
)

// Fig8aAoA reproduces Fig. 8(a): the AoA estimation error of SpotFi's
// super-resolution algorithm vs the MUSIC-AoA baseline, separately for LoS
// and NLoS links. Per the paper's method, the error of a packet is the
// distance from the ground-truth direct AoA to the *closest* estimate, so
// selection quality is factored out.
func Fig8aAoA(opts Options) (*Result, error) {
	opts = opts.fill()
	d := testbed.Office(opts.Seed)
	// Validate the estimator configuration (and warm the shared steering
	// cache) before fanning out; each worker goroutine then builds its own
	// estimator — a music.Estimator owns mutable sweep arenas and is
	// single-goroutine.
	if _, err := music.NewEstimator(music.DefaultParams()); err != nil {
		return nil, err
	}
	base, err := music.NewAoAEstimator(music.DefaultAoAParams())
	if err != nil {
		return nil, err
	}
	esprit, err := music.NewESPRIT(music.DefaultAoAParams())
	if err != nil {
		return nil, err
	}
	idx := targetsFor(d, opts)

	type sample struct {
		spotfi, baseline, esprit float64
		los                      bool
		ok                       bool
	}
	results := make([][]sample, len(idx))

	closestErr := func(paths []music.PathEstimate, truth float64) (float64, bool) {
		best := math.Inf(1)
		for _, p := range paths {
			if e := math.Abs(p.AoA - truth); e < best {
				best = e
			}
		}
		return best, !math.IsInf(best, 1)
	}

	sem := make(chan struct{}, opts.Workers)
	done := make(chan int)
	for i, t := range idx {
		go func(i, t int) {
			sem <- struct{}{}
			defer func() { <-sem; done <- i }()
			est, err := music.NewEstimator(music.DefaultParams())
			if err != nil {
				return
			}
			losSet := map[int]bool{}
			for _, a := range d.LoSAPs(t) {
				losSet[a] = true
			}
			var out []sample
			for a := range d.APs {
				burst, err := d.Burst(a, t, opts.Packets)
				if err != nil {
					continue
				}
				truth := d.GroundTruthAoA(a, t)
				for _, pkt := range burst {
					var s sample
					s.los = losSet[a]
					work := pkt.CSI.Clone()
					if _, err := sanitize.ToF(work, d.Band.SubcarrierSpacingHz); err != nil {
						continue
					}
					sp, err1 := est.EstimatePaths(work)
					bp, err2 := base.EstimatePaths(pkt.CSI)
					ep, err3 := esprit.EstimatePaths(pkt.CSI)
					if err1 != nil || err2 != nil || err3 != nil {
						continue
					}
					se, ok1 := closestErr(sp, truth)
					be, ok2 := closestErr(bp, truth)
					ee, ok3 := closestErr(ep, truth)
					if !ok1 || !ok2 || !ok3 {
						continue
					}
					s.spotfi, s.baseline, s.esprit, s.ok = geom.Deg(se), geom.Deg(be), geom.Deg(ee), true
					out = append(out, s)
				}
			}
			results[i] = out
		}(i, t)
	}
	for range idx {
		<-done
	}

	series := map[string][]float64{}
	for _, rs := range results {
		for _, s := range rs {
			if !s.ok {
				continue
			}
			key := "nlos"
			if s.los {
				key = "los"
			}
			series["spotfi-"+key] = append(series["spotfi-"+key], s.spotfi)
			series["music-aoa-"+key] = append(series["music-aoa-"+key], s.baseline)
			series["esprit-"+key] = append(series["esprit-"+key], s.esprit)
		}
	}
	res := &Result{ID: "fig8a", Title: "AoA estimation error (closest estimate)", Unit: "deg"}
	for _, label := range []string{"spotfi-los", "music-aoa-los", "esprit-los", "spotfi-nlos", "music-aoa-nlos", "esprit-nlos"} {
		res.Series = append(res.Series, Series{Label: label, Values: series[label]})
	}
	if len(series["spotfi-los"]) == 0 {
		return nil, fmt.Errorf("experiments: fig8a produced no LoS samples")
	}
	return res, nil
}

// Fig8bSelection reproduces Fig. 8(b): the direct-path *selection* error of
// SpotFi's likelihood metric vs the LTEye (min-ToF), CUPID (max-power), and
// oracle rules, all operating on SpotFi's super-resolution estimates.
func Fig8bSelection(opts Options) (*Result, error) {
	opts = opts.fill()
	if _, err := music.NewEstimator(music.DefaultParams()); err != nil {
		return nil, err
	}
	series := map[string][]float64{}
	for _, d := range []*testbed.Deployment{testbed.Office(opts.Seed), testbed.HighNLoS(opts.Seed)} {
		idx := targetsFor(d, opts)
		type linkErrs struct {
			vals map[string][]float64
		}
		perTarget := make([]linkErrs, len(idx))
		sem := make(chan struct{}, opts.Workers)
		done := make(chan int)
		for i, t := range idx {
			go func(i, t int) {
				sem <- struct{}{}
				defer func() { <-sem; done <- i }()
				est, err := music.NewEstimator(music.DefaultParams())
				if err != nil {
					return
				}
				vals := map[string][]float64{}
				for a := range d.APs {
					burst, err := d.Burst(a, t, opts.Packets)
					if err != nil {
						continue
					}
					perPacket := sanitizedEstimates(d, est, burst)
					if len(perPacket) == 0 {
						continue
					}
					res, err := dpath.Identify(perPacket, dpath.DefaultConfig(), opts.Seed*1_000_003+8*7919+int64(t*100+a))
					if err != nil {
						continue
					}
					truth := d.GroundTruthAoA(a, t)
					if c, ok := res.Best(); ok {
						vals["spotfi"] = append(vals["spotfi"], geom.Deg(math.Abs(c.AoA-truth)))
					}
					if c, ok := res.MinToF(); ok {
						vals["lteye-min-tof"] = append(vals["lteye-min-tof"], geom.Deg(math.Abs(c.AoA-truth)))
					}
					if c, ok := res.MaxPower(); ok {
						vals["cupid-max-power"] = append(vals["cupid-max-power"], geom.Deg(math.Abs(c.AoA-truth)))
					}
					if c, ok := res.Oracle(truth); ok {
						vals["oracle"] = append(vals["oracle"], geom.Deg(math.Abs(c.AoA-truth)))
					}
				}
				perTarget[i] = linkErrs{vals: vals}
			}(i, t)
		}
		for range idx {
			<-done
		}
		for _, le := range perTarget {
			for k, v := range le.vals {
				series[k] = append(series[k], v...)
			}
		}
	}
	if len(series["spotfi"]) == 0 {
		return nil, fmt.Errorf("experiments: fig8b produced no samples")
	}
	res := &Result{ID: "fig8b", Title: "direct-path AoA selection error", Unit: "deg"}
	for _, label := range []string{"oracle", "spotfi", "lteye-min-tof", "cupid-max-power"} {
		res.Series = append(res.Series, Series{Label: label, Values: series[label]})
	}
	return res, nil
}
