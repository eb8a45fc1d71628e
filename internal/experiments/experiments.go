// Package experiments reproduces every figure of the paper's evaluation
// (Sec. 4): each Fig* function regenerates the data behind one figure on
// the simulated testbed and returns labeled series that cmd/spotfi-bench
// prints and EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"spotfi"
	"spotfi/internal/csi"
	"spotfi/internal/locate"
	"spotfi/internal/music"
	"spotfi/internal/sanitize"
	"spotfi/internal/stats"
	"spotfi/internal/testbed"
)

// Options scales an experiment run. The zero value is filled with the
// paper's full-scale parameters by (*Options).fill.
type Options struct {
	// Seed drives the whole run deterministically.
	Seed int64
	// Packets per burst (the paper's method uses 40; Fig. 9b sweeps it).
	Packets int
	// MaxTargets caps targets per deployment (0 = all) to allow quick
	// runs; the full run uses every target.
	MaxTargets int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Repeats pools the localization experiments over this many
	// independently-seeded deployments (target layouts and channels) to
	// tighten the reported distributions. 0 or 1 runs one deployment.
	Repeats int
}

// seeds returns the deployment seeds a repeated run covers.
func (o Options) seeds() []int64 {
	n := o.Repeats
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = o.Seed + int64(i)*1000
	}
	return out
}

func (o Options) fill() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Packets == 0 {
		o.Packets = 40
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Series is one labeled error distribution (a CDF curve in the paper).
type Series struct {
	Label  string
	Values []float64
}

// Result is the reproduced data behind one figure.
type Result struct {
	ID     string
	Title  string
	Unit   string
	Series []Series
	// Notes carries per-experiment observations (cluster tables, etc.).
	Notes string
}

// Render formats the result as the bench harness prints it: one summary
// row per series plus CDF samples.
func (r *Result) Render() string {
	var b strings.Builder
	labels := make([]string, len(r.Series))
	sums := make([]stats.Summary, len(r.Series))
	for i, s := range r.Series {
		labels[i] = s.Label
		sums[i] = stats.Summarize(s.Values)
	}
	fmt.Fprintf(&b, "== %s: %s (unit: %s) ==\n", r.ID, r.Title, r.Unit)
	b.WriteString(stats.Table("", labels, sums))
	// Bootstrap 95% CIs on the medians so readers can judge whether
	// series differences are resolved at this sample size.
	rng := rand.New(rand.NewSource(7))
	for _, s := range r.Series {
		if len(s.Values) < 5 {
			continue
		}
		lo, hi := stats.BootstrapMedianCI(s.Values, 400, 0.95, rng)
		fmt.Fprintf(&b, "ci  %-22s median 95%% CI [%.3f, %.3f]\n", s.Label, lo, hi)
	}
	for _, s := range r.Series {
		if len(s.Values) == 0 {
			continue
		}
		xs, ps := stats.NewCDF(s.Values).Series(9)
		fmt.Fprintf(&b, "cdf %-22s", s.Label)
		for i := range xs {
			fmt.Fprintf(&b, " (%.2f,%.2f)", xs[i], ps[i])
		}
		b.WriteString("\n")
	}
	if r.Notes != "" {
		b.WriteString(r.Notes)
		if !strings.HasSuffix(r.Notes, "\n") {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// targets returns the target indices an experiment covers under opts.
func targetsFor(d *testbed.Deployment, opts Options) []int {
	n := len(d.Targets)
	if opts.MaxTargets > 0 && opts.MaxTargets < n {
		n = opts.MaxTargets
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// parallelMap runs fn(idx[i]) for every position i with bounded
// parallelism, storing results positionally so output order is
// deterministic.
func parallelMap(idx []int, workers int, fn func(t int) (float64, bool)) []float64 {
	vals := make([]float64, len(idx))
	oks := make([]bool, len(idx))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, t := range idx {
		wg.Add(1)
		sem <- struct{}{}
		go func(i, t int) {
			defer wg.Done()
			defer func() { <-sem }()
			vals[i], oks[i] = fn(t)
		}(i, t)
	}
	wg.Wait()
	var out []float64
	for i := range vals {
		if oks[i] {
			out = append(out, vals[i])
		}
	}
	sort.Float64s(out)
	return out
}

// deploymentAPs converts testbed APs to the public type.
func deploymentAPs(d *testbed.Deployment) []spotfi.AP {
	aps := make([]spotfi.AP, len(d.APs))
	for i, ap := range d.APs {
		aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	return aps
}

// newLocalizer builds a pipeline for deployment d. Workers=1 because the
// experiment already parallelizes across targets.
func newLocalizer(d *testbed.Deployment) (*spotfi.Localizer, error) {
	cfg := spotfi.DefaultConfig(d.Bounds)
	cfg.Workers = 1
	return spotfi.New(cfg, deploymentAPs(d))
}

// spotfiLocalize runs the full SpotFi pipeline for target t using the APs
// in apSet (nil = all) and returns the localization error in meters.
func spotfiLocalize(d *testbed.Deployment, loc *spotfi.Localizer, t, packets int, apSet []int) (float64, error) {
	bursts := make(map[int][]*csi.Packet)
	if apSet == nil {
		apSet = make([]int, len(d.APs))
		for i := range apSet {
			apSet[i] = i
		}
	}
	for _, a := range apSet {
		b, err := d.Burst(a, t, packets)
		if err != nil {
			// An AP that cannot hear the target simply contributes no
			// burst, as in a real deployment.
			continue
		}
		bursts[a] = b
	}
	p, _, _, err := loc.LocalizeBursts(bursts)
	if err != nil {
		return 0, err
	}
	return p.Dist(d.Targets[t]), nil
}

// arrayTrackLocalize runs the practical 3-antenna ArrayTrack baseline the
// paper compares against (Sec. 4.1): per AP the antenna-only MUSIC spectra
// of the burst are averaged and the strongest peak is taken as the direct
// bearing (with 3 antennas there is no better selection signal — exactly
// the failure mode Fig. 8b documents for max-power selection), then the
// bearings are triangulated by unweighted least squares.
func arrayTrackLocalize(d *testbed.Deployment, est *music.AoAEstimator, t, packets int, apSet []int) (float64, error) {
	obs, err := arrayTrackSpectra(d, est, t, packets, apSet)
	if err != nil {
		return 0, err
	}
	var apObs []locate.APObservation
	for _, o := range obs {
		// Strongest interior peak of the averaged spectrum.
		bestI, bestV := -1, 0.0
		for i := 1; i < len(o.P)-1; i++ {
			if o.P[i] >= o.P[i-1] && o.P[i] >= o.P[i+1] && o.P[i] > bestV {
				bestI, bestV = i, o.P[i]
			}
		}
		if bestI < 0 {
			continue
		}
		apObs = append(apObs, locate.APObservation{
			Pos:         o.Pos,
			NormalAngle: o.NormalAngle,
			AoA:         o.Thetas[bestI],
			Likelihood:  1,
		})
	}
	if len(apObs) < 2 {
		return 0, fmt.Errorf("experiments: only %d usable APs for ArrayTrack", len(apObs))
	}
	cfg := locate.DefaultConfig(d.Bounds)
	cfg.RSSIWeightDB2 = 0 // bearings only
	cfg.FitIntercept = false
	cfg.RobustRounds = 0 // no likelihood information to exploit
	res, err := locate.Locate(apObs, cfg)
	if err != nil {
		return 0, err
	}
	return res.Location.Dist(d.Targets[t]), nil
}

// arrayTrackSynthesisLocalize is the softer ArrayTrack variant: instead of
// committing to one bearing per AP it maximizes the product of the full
// averaged spectra over candidate locations (the original ArrayTrack
// spectrum-synthesis idea).
func arrayTrackSynthesisLocalize(d *testbed.Deployment, est *music.AoAEstimator, t, packets int, apSet []int) (float64, error) {
	obs, err := arrayTrackSpectra(d, est, t, packets, apSet)
	if err != nil {
		return 0, err
	}
	if len(obs) < 2 {
		return 0, fmt.Errorf("experiments: only %d usable APs for ArrayTrack synthesis", len(obs))
	}
	p, err := locate.LocateArrayTrack(obs, locate.DefaultArrayTrackConfig(d.Bounds))
	if err != nil {
		return 0, err
	}
	return p.Dist(d.Targets[t]), nil
}

// arrayTrackSpectra computes the per-AP burst-averaged MUSIC-AoA spectra.
func arrayTrackSpectra(d *testbed.Deployment, est *music.AoAEstimator, t, packets int, apSet []int) ([]locate.SpectrumObservation, error) {
	if apSet == nil {
		apSet = make([]int, len(d.APs))
		for i := range apSet {
			apSet[i] = i
		}
	}
	var obs []locate.SpectrumObservation
	for _, a := range apSet {
		burst, err := d.Burst(a, t, packets)
		if err != nil {
			continue // this AP cannot hear the target
		}
		var acc []float64
		var thetas []float64
		used := 0
		for _, pkt := range burst {
			spec, err := est.Spectrum(pkt.CSI)
			if err != nil {
				continue
			}
			if acc == nil {
				acc = make([]float64, len(spec.P))
				thetas = spec.Thetas
			}
			// Normalize each packet's spectrum so one packet cannot
			// dominate the average.
			var max float64
			for _, v := range spec.P {
				if v > max {
					max = v
				}
			}
			if max <= 0 {
				continue
			}
			for i, v := range spec.P {
				acc[i] += v / max
			}
			used++
		}
		if used == 0 {
			continue
		}
		for i := range acc {
			acc[i] /= float64(used)
		}
		obs = append(obs, locate.SpectrumObservation{
			Pos:         d.APs[a].Pos,
			NormalAngle: d.APs[a].NormalAngle,
			Thetas:      thetas,
			P:           acc,
		})
	}
	return obs, nil
}

// sanitizedEstimates runs Algorithm 1 + super-resolution on every packet
// of a burst.
func sanitizedEstimates(d *testbed.Deployment, est *music.Estimator, burst []*csi.Packet) [][]music.PathEstimate {
	out := make([][]music.PathEstimate, 0, len(burst))
	for _, pkt := range burst {
		work := pkt.CSI.Clone()
		if _, err := sanitize.ToF(work, d.Band.SubcarrierSpacingHz); err != nil {
			continue
		}
		paths, err := est.EstimatePaths(work)
		if err != nil {
			continue
		}
		out = append(out, paths)
	}
	return out
}
