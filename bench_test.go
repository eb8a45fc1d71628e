// Benchmarks regenerating every table and figure of the paper's evaluation
// (scaled down so `go test -bench=.` completes in minutes; the full-scale
// reproduction is `go run ./cmd/spotfi-bench`), micro-benchmarks of the
// pipeline's hot paths, and ablation benches for the design choices called
// out in DESIGN.md. Figure benches report the headline quality metric via
// b.ReportMetric alongside timing.
package spotfi_test

import (
	"math/rand"
	"testing"

	"spotfi"

	"spotfi/internal/cluster"
	"spotfi/internal/cmat"
	"spotfi/internal/csi"
	"spotfi/internal/dpath"
	"spotfi/internal/experiments"
	"spotfi/internal/locate"
	"spotfi/internal/music"
	"spotfi/internal/sanitize"
	"spotfi/internal/stats"
	"spotfi/internal/testbed"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Packets: 6, MaxTargets: 4}
}

// reportSeries attaches each series' median to the benchmark output.
func reportSeries(b *testing.B, r *experiments.Result) {
	b.Helper()
	for _, s := range r.Series {
		if len(s.Values) == 0 {
			continue
		}
		b.ReportMetric(stats.Median(s.Values), "median_"+s.Label+"_"+r.Unit)
	}
}

// --- One benchmark per paper figure ---

func BenchmarkFig5Sanitization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5Sanitization(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(stats.StdDev(r.Series[0].Values), "raw_tof_stddev_ns")
			b.ReportMetric(stats.StdDev(r.Series[1].Values), "sanitized_tof_stddev_ns")
		}
	}
}

func BenchmarkFig5cClusters(b *testing.B) {
	opts := benchOpts()
	opts.Packets = 30
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5cClusters(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aOffice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7aOffice(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, r)
		}
	}
}

func BenchmarkFig7bNLoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7bNLoS(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, r)
		}
	}
}

func BenchmarkFig7cCorridor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7cCorridor(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, r)
		}
	}
}

func BenchmarkFig8aAoA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8aAoA(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, r)
		}
	}
}

func BenchmarkFig8bSelection(b *testing.B) {
	opts := benchOpts()
	opts.MaxTargets = 3
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8bSelection(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, r)
		}
	}
}

func BenchmarkFig9aDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9aDensity(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, r)
		}
	}
}

func BenchmarkFig9bPackets(b *testing.B) {
	opts := benchOpts()
	opts.Packets = 10
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9bPackets(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, r)
		}
	}
}

// --- Micro-benchmarks of the pipeline hot paths ---

func benchCSI(b *testing.B) *csi.Matrix {
	b.Helper()
	d := testbed.Office(1)
	burst, err := d.Burst(0, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	return burst[0].CSI
}

func BenchmarkSmoothCSI(b *testing.B) {
	c := benchCSI(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		music.SmoothCSI(c, 2, 15)
	}
}

func BenchmarkGram30x32(b *testing.B) {
	x := music.SmoothCSI(benchCSI(b), 2, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Gram()
	}
}

func BenchmarkEigHermitian30(b *testing.B) {
	r := music.SmoothCSI(benchCSI(b), 2, 15).Gram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmat.EigHermitian(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSanitize(b *testing.B) {
	c := benchCSI(b)
	band := testbed.Office(1).Band
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := c.Clone()
		if _, err := sanitize.ToF(work, band.SubcarrierSpacingHz); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatePaths(b *testing.B) {
	est, err := music.NewEstimator(music.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	c := benchCSI(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimatePaths(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineAoA(b *testing.B) {
	est, err := music.NewAoAEstimator(music.DefaultAoAParams())
	if err != nil {
		b.Fatal(err)
	}
	c := benchCSI(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimatePaths(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]cluster.Point, 200)
	for i := range pts {
		pts[i] = cluster.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	cfg := cluster.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(pts, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessBurst10(b *testing.B) {
	d := testbed.Office(1)
	loc := mustLocalizer(b, d)
	burst, err := d.Burst(0, 0, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loc.ProcessBurst(0, burst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocateEq9(b *testing.B) {
	d := testbed.Office(1)
	var obs []locate.APObservation
	for a := range d.APs {
		obs = append(obs, locate.APObservation{
			Pos:         d.APs[a].Pos,
			NormalAngle: d.APs[a].NormalAngle,
			AoA:         d.GroundTruthAoA(a, 0),
			RSSIdBm:     -60,
			Likelihood:  1,
		})
	}
	cfg := locate.DefaultConfig(d.Bounds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locate.Locate(obs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullPipelineOneTarget(b *testing.B) {
	d := testbed.Office(1)
	loc := mustLocalizer(b, d)
	bursts := make(map[int][]*spotfi.Packet)
	for a := range d.APs {
		burst, err := d.Burst(a, 0, 10)
		if err != nil {
			b.Fatal(err)
		}
		bursts[a] = burst
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := loc.LocalizeBursts(bursts); err != nil {
			b.Fatal(err)
		}
	}
}

func mustLocalizer(b *testing.B, d *testbed.Deployment) *spotfi.Localizer {
	b.Helper()
	aps := make([]spotfi.AP, len(d.APs))
	for i, ap := range d.APs {
		aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	loc, err := spotfi.New(spotfi.DefaultConfig(d.Bounds), aps)
	if err != nil {
		b.Fatal(err)
	}
	return loc
}

// --- Ablation benches (DESIGN.md Sec. 5) ---

// ablationSelection measures the direct-path selection error of each
// scheme on a fixed set of links and reports the medians.
func BenchmarkAblationSelectionSchemes(b *testing.B) {
	d := testbed.Office(1)
	est, err := music.NewEstimator(music.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		errsBy := map[string][]float64{}
		for t := 0; t < 4; t++ {
			for a := range d.APs {
				burst, err := d.Burst(a, t, 6)
				if err != nil {
					continue
				}
				var perPacket [][]music.PathEstimate
				for _, pkt := range burst {
					work := pkt.CSI.Clone()
					if _, err := sanitize.ToF(work, d.Band.SubcarrierSpacingHz); err != nil {
						continue
					}
					paths, err := est.EstimatePaths(work)
					if err != nil {
						continue
					}
					perPacket = append(perPacket, paths)
				}
				cfg := dpath.DefaultConfig()
				cfg.Cluster.K = 7
				res, err := dpath.Identify(perPacket, cfg, rand.New(rand.NewSource(int64(t*100+a))))
				if err != nil {
					continue
				}
				truth := d.GroundTruthAoA(a, t)
				if c, ok := res.Best(); ok {
					errsBy["likelihood"] = append(errsBy["likelihood"], absDeg(c.AoA-truth))
				}
				if c, ok := res.MinToF(); ok {
					errsBy["min-tof"] = append(errsBy["min-tof"], absDeg(c.AoA-truth))
				}
				if c, ok := res.MaxPower(); ok {
					errsBy["max-power"] = append(errsBy["max-power"], absDeg(c.AoA-truth))
				}
			}
		}
		if i == b.N-1 {
			for k, v := range errsBy {
				b.ReportMetric(stats.Median(v), "median_"+k+"_deg")
			}
		}
	}
}

func absDeg(rad float64) float64 {
	if rad < 0 {
		rad = -rad
	}
	return rad * 180 / 3.141592653589793
}

// BenchmarkAblationClusterK compares cluster counts (paper uses 5).
func BenchmarkAblationClusterK(b *testing.B) {
	for _, k := range []int{3, 5, 7} {
		b.Run(itoa(k), func(b *testing.B) {
			d := testbed.Office(1)
			cfg := spotfi.DefaultConfig(d.Bounds)
			cfg.DPath.Cluster.K = k
			cfg.Workers = 1
			loc, err := spotfi.New(cfg, apsOf(d))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				med := localizeFour(b, d, loc)
				if i == b.N-1 {
					b.ReportMetric(med, "median_m")
				}
			}
		})
	}
}

// BenchmarkAblationSanitize toggles Algorithm 1, scoring every office
// target at the gate seeds 1, 1001 and 2001 (90 targets, 10 packets per
// AP). Scored on localizeFour's 4 targets, the ablation ranked Algorithm
// 1 off above on (0.283 against 0.378 m), the reverse of the 90-target
// result.
func BenchmarkAblationSanitize(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				med := localizeOffice(b, func(cfg *spotfi.Config) { cfg.Sanitize = on })
				if i == b.N-1 {
					b.ReportMetric(med, "median_m")
				}
			}
		})
	}
}

// BenchmarkAblationRobustRounds toggles the IRLS refinement of Eq. 9.
func BenchmarkAblationRobustRounds(b *testing.B) {
	for _, rounds := range []int{0, 2} {
		b.Run(itoa(rounds), func(b *testing.B) {
			d := testbed.Office(1)
			cfg := spotfi.DefaultConfig(d.Bounds)
			cfg.Locate.RobustRounds = rounds
			cfg.Workers = 1
			loc, err := spotfi.New(cfg, apsOf(d))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				med := localizeFour(b, d, loc)
				if i == b.N-1 {
					b.ReportMetric(med, "median_m")
				}
			}
		})
	}
}

// BenchmarkAblationEigenThreshold sweeps the noise-subspace cut.
func BenchmarkAblationEigenThreshold(b *testing.B) {
	for _, name := range []string{"0.005", "0.015", "0.05"} {
		th := map[string]float64{"0.005": 0.005, "0.015": 0.015, "0.05": 0.05}[name]
		b.Run(name, func(b *testing.B) {
			d := testbed.Office(1)
			cfg := spotfi.DefaultConfig(d.Bounds)
			cfg.Music.EigenThreshold = th
			cfg.Workers = 1
			loc, err := spotfi.New(cfg, apsOf(d))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				med := localizeFour(b, d, loc)
				if i == b.N-1 {
					b.ReportMetric(med, "median_m")
				}
			}
		})
	}
}

func apsOf(d *testbed.Deployment) []spotfi.AP {
	aps := make([]spotfi.AP, len(d.APs))
	for i, ap := range d.APs {
		aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	return aps
}

// localizeFour localizes 4 office targets with 6-packet bursts and returns
// the median error.
func localizeFour(b *testing.B, d *testbed.Deployment, loc *spotfi.Localizer) float64 {
	b.Helper()
	var errs []float64
	for t := 0; t < 4; t++ {
		bursts := make(map[int][]*spotfi.Packet)
		for a := range d.APs {
			burst, err := d.Burst(a, t, 6)
			if err != nil {
				continue
			}
			bursts[a] = burst
		}
		p, _, _, err := loc.LocalizeBursts(bursts)
		if err != nil {
			continue
		}
		errs = append(errs, p.Dist(d.Targets[t]))
	}
	if len(errs) == 0 {
		b.Fatal("no targets localized")
	}
	return stats.Median(errs)
}

// localizeOffice localizes every target of the office testbed at the
// gate seeds 1, 1001 and 2001 with 10-packet bursts, on a localizer
// configured by mutate, and returns the median error.
func localizeOffice(b *testing.B, mutate func(*spotfi.Config)) float64 {
	b.Helper()
	var errs []float64
	for _, seed := range []int64{1, 1001, 2001} {
		d := testbed.Office(seed)
		cfg := spotfi.DefaultConfig(d.Bounds)
		cfg.Workers = 1
		mutate(&cfg)
		loc, err := spotfi.New(cfg, apsOf(d))
		if err != nil {
			b.Fatal(err)
		}
		for t := range d.Targets {
			bursts := make(map[int][]*spotfi.Packet)
			for a := range d.APs {
				burst, err := d.Burst(a, t, 10)
				if err != nil {
					continue
				}
				bursts[a] = burst
			}
			p, _, _, err := loc.LocalizeBursts(bursts)
			if err != nil {
				continue
			}
			errs = append(errs, p.Dist(d.Targets[t]))
		}
	}
	if len(errs) == 0 {
		b.Fatal("no targets localized")
	}
	return stats.Median(errs)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkESPRITAoA(b *testing.B) {
	est, err := music.NewESPRIT(music.DefaultAoAParams())
	if err != nil {
		b.Fatal(err)
	}
	c := benchCSI(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimatePaths(c); err != nil {
			b.Fatal(err)
		}
	}
}
