package experiments

import (
	"fmt"
	"math"

	"spotfi/internal/geom"
	"spotfi/internal/plan"
	"spotfi/internal/testbed"
)

// PlanValidation is an extra (non-paper) experiment validating the
// coverage planner against the measured pipeline: for every office target
// it compares the geometry-only CRLB prediction (internal/plan, using
// SpotFi's measured LoS bearing error) with the localization error the
// full pipeline actually achieves. The planner is useful exactly when the
// two track each other.
func PlanValidation(opts Options) (*Result, error) {
	opts = opts.fill()
	d := testbed.Office(opts.Seed)
	loc, err := newLocalizer(d)
	if err != nil {
		return nil, err
	}
	planAPs := make([]plan.AP, len(d.APs))
	for i, ap := range d.APs {
		planAPs[i] = plan.AP{Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	cfg := plan.DefaultConfig()
	// σ from the measured Fig. 8a LoS median (≈4.2°).
	cfg.AoAStdRad = geom.Rad(4.2)

	idx := targetsFor(d, opts)
	type pair struct {
		predicted, measured float64
		ok                  bool
	}
	pairs := make([]pair, len(idx))
	sem := make(chan struct{}, opts.Workers)
	done := make(chan int)
	for i, t := range idx {
		go func(i, t int) {
			sem <- struct{}{}
			defer func() { <-sem; done <- i }()
			pred, err := plan.ExpectedError(d.Targets[t], planAPs, cfg)
			if err != nil || math.IsInf(pred, 1) {
				return
			}
			meas, err := spotfiLocalize(d, loc, t, opts.Packets, nil)
			if err != nil {
				return
			}
			pairs[i] = pair{predicted: pred, measured: meas, ok: true}
		}(i, t)
	}
	for range idx {
		<-done
	}

	var pred, meas []float64
	for _, p := range pairs {
		if p.ok {
			pred = append(pred, p.predicted)
			meas = append(meas, p.measured)
		}
	}
	if len(pred) < 3 {
		return nil, fmt.Errorf("experiments: plan validation produced too few pairs")
	}

	// Spearman-style agreement: Pearson correlation of the rank orders.
	corr := rankCorrelation(pred, meas)
	return &Result{
		ID:    "planval",
		Title: "coverage planner CRLB vs measured localization error",
		Unit:  "m",
		Series: []Series{
			{Label: "predicted-crlb", Values: append([]float64(nil), pred...)},
			{Label: "measured-spotfi", Values: append([]float64(nil), meas...)},
		},
		Notes: fmt.Sprintf("rank correlation (predicted vs measured): %.2f over %d targets\n", corr, len(pred)),
	}, nil
}

// rankCorrelation computes the Pearson correlation between the rank
// vectors of xs and ys.
func rankCorrelation(xs, ys []float64) float64 {
	rx := ranks(xs)
	ry := ranks(ys)
	n := float64(len(rx))
	var mx, my float64
	for i := range rx {
		mx += rx[i]
		my += ry[i]
	}
	mx /= n
	my /= n
	var num, dx, dy float64
	for i := range rx {
		a := rx[i] - mx
		b := ry[i] - my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx <= 0 || dy <= 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && xs[idx[j]] < xs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	out := make([]float64, len(xs))
	for rank, i := range idx {
		out[i] = float64(rank)
	}
	return out
}
