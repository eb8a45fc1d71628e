package experiments

import (
	"fmt"

	"spotfi/internal/testbed"
)

// Fig9aDensity reproduces Fig. 9(a): SpotFi's localization error as the
// number of APs that hear the target varies from 3 to 5 (plus all 6),
// emulating different deployment densities via random AP subsets (paper:
// medians ≈1.9/0.8/0.6 m for 3/4/5 APs).
func Fig9aDensity(opts Options) (*Result, error) {
	opts = opts.fill()
	res := &Result{ID: "fig9a", Title: "localization error vs number of APs", Unit: "m"}
	ks := []int{3, 4, 5, 6}
	pooled := make([][]float64, len(ks))
	for _, seed := range opts.seeds() {
		d := testbed.Office(seed)
		loc, err := newLocalizer(d)
		if err != nil {
			return nil, err
		}
		idx := targetsFor(d, opts)
		for ki, k := range ks {
			k := k
			errs := parallelMap(idx, opts.Workers, func(t int) (float64, bool) {
				subset := d.SubsetAPs(t, k)
				e, err := spotfiLocalize(d, loc, t, opts.Packets, subset)
				return e, err == nil
			})
			pooled[ki] = append(pooled[ki], errs...)
		}
	}
	for ki, k := range ks {
		res.Series = append(res.Series, Series{Label: fmt.Sprintf("%d-aps", k), Values: pooled[ki]})
	}
	if len(res.Series[0].Values) == 0 {
		return nil, fmt.Errorf("experiments: fig9a produced no results")
	}
	return res, nil
}

// Fig9bPackets reproduces Fig. 9(b): SpotFi's localization error as the
// number of packets per burst varies from 6 to 40 (paper: ≈0.5 m median
// at 10 packets vs ≈0.4 m at 40).
func Fig9bPackets(opts Options) (*Result, error) {
	opts = opts.fill()
	counts := []int{6, 10, 20, 40}
	if opts.Packets < 40 {
		// Scaled-down run: sweep up to the requested budget.
		counts = nil
		for _, c := range []int{6, 10, 20, 40} {
			if c <= opts.Packets {
				counts = append(counts, c)
			}
		}
		if len(counts) == 0 {
			counts = []int{opts.Packets}
		}
	}
	pooled := make([][]float64, len(counts))
	for _, seed := range opts.seeds() {
		d := testbed.Office(seed)
		loc, err := newLocalizer(d)
		if err != nil {
			return nil, err
		}
		idx := targetsFor(d, opts)
		for ni, n := range counts {
			n := n
			errs := parallelMap(idx, opts.Workers, func(t int) (float64, bool) {
				e, err := spotfiLocalize(d, loc, t, n, nil)
				return e, err == nil
			})
			pooled[ni] = append(pooled[ni], errs...)
		}
	}
	res := &Result{ID: "fig9b", Title: "localization error vs packets per burst", Unit: "m"}
	for ni, n := range counts {
		res.Series = append(res.Series, Series{Label: fmt.Sprintf("%d-packets", n), Values: pooled[ni]})
	}
	if len(res.Series[len(res.Series)-1].Values) == 0 {
		return nil, fmt.Errorf("experiments: fig9b produced no results")
	}
	return res, nil
}
