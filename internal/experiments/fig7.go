package experiments

import (
	"fmt"

	"spotfi/internal/music"
	"spotfi/internal/testbed"
)

// figure7 runs the localization-error comparison (SpotFi vs the 3-antenna
// ArrayTrack implementation) on one deployment family, pooling over
// opts.Repeats independently-seeded layouts.
func figure7(id, title string, mk func(int64) *testbed.Deployment, opts Options) (*Result, error) {
	opts = opts.fill()
	base, err := music.NewAoAEstimator(music.DefaultAoAParams())
	if err != nil {
		return nil, err
	}
	var spotfiErrs, atErrs, atSynErrs []float64
	for _, seed := range opts.seeds() {
		d := mk(seed)
		loc, err := newLocalizer(d)
		if err != nil {
			return nil, err
		}
		idx := targetsFor(d, opts)
		spotfiErrs = append(spotfiErrs, parallelMap(idx, opts.Workers, func(t int) (float64, bool) {
			e, err := spotfiLocalize(d, loc, t, opts.Packets, nil)
			return e, err == nil
		})...)
		atErrs = append(atErrs, parallelMap(idx, opts.Workers, func(t int) (float64, bool) {
			e, err := arrayTrackLocalize(d, base, t, opts.Packets, nil)
			return e, err == nil
		})...)
		atSynErrs = append(atSynErrs, parallelMap(idx, opts.Workers, func(t int) (float64, bool) {
			e, err := arrayTrackSynthesisLocalize(d, base, t, opts.Packets, nil)
			return e, err == nil
		})...)
	}
	if len(spotfiErrs) == 0 || len(atErrs) == 0 {
		return nil, fmt.Errorf("experiments: %s produced no results", id)
	}
	return &Result{
		ID:    id,
		Title: title,
		Unit:  "m",
		Series: []Series{
			{Label: "spotfi", Values: spotfiErrs},
			{Label: "arraytrack-3ant", Values: atErrs},
			{Label: "arraytrack-synthesis", Values: atSynErrs},
		},
	}, nil
}

// Fig7aOffice reproduces Fig. 7(a): localization error CDF in the indoor
// office deployment (paper: SpotFi 0.4 m median / 1.8 m p80; ArrayTrack
// 1.8 m / 4 m).
func Fig7aOffice(opts Options) (*Result, error) {
	return figure7("fig7a", "localization error, indoor office deployment",
		testbed.Office, opts)
}

// Fig7bNLoS reproduces Fig. 7(b): localization error when targets have at
// most two LoS APs (paper: SpotFi 1.6 m vs ArrayTrack 3.5 m median).
func Fig7bNLoS(opts Options) (*Result, error) {
	return figure7("fig7b", "localization error, high-NLoS deployment",
		testbed.HighNLoS, opts)
}

// Fig7cCorridor reproduces Fig. 7(c): localization error in corridors
// (paper: SpotFi ≈1.1 m vs ArrayTrack ≈4 m median).
func Fig7cCorridor(opts Options) (*Result, error) {
	return figure7("fig7c", "localization error, corridor deployment",
		testbed.Corridor, opts)
}
