// Package spotfi is a from-scratch Go implementation of SpotFi
// ("SpotFi: Decimeter Level Localization Using WiFi", Kotaru, Joshi,
// Bharadia, Katti — SIGCOMM 2015): decimeter-level indoor localization on
// commodity 3-antenna WiFi APs using only CSI and RSSI.
//
// The pipeline has three stages, mirroring the paper:
//
//  1. Super-resolution estimation — each packet's 3×30 CSI matrix is
//     sanitized (Algorithm 1) and expanded into the smoothed CSI matrix of
//     Fig. 4, on which 2-D MUSIC jointly resolves the (AoA, ToF) of every
//     multipath component (Sec. 3.1).
//  2. Direct-path identification — per-packet estimates are clustered in
//     the (AoA, ToF) plane and each cluster is scored with the likelihood
//     metric of Eq. 8 (Sec. 3.2).
//  3. Localization — direct-path AoAs, likelihoods, and RSSI from all APs
//     are fused by minimizing the weighted least-squares objective of
//     Eq. 9 (Sec. 3.3).
//
// The Localizer type runs the whole pipeline; the stages are also exposed
// individually for applications that only need AoA estimation or
// direct-path identification.
package spotfi

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"spotfi/internal/calib"
	"spotfi/internal/csi"
	"spotfi/internal/dpath"
	"spotfi/internal/flight"
	"spotfi/internal/geom"
	"spotfi/internal/locate"
	"spotfi/internal/music"
	"spotfi/internal/obs"
	"spotfi/internal/obs/quality"
	"spotfi/internal/obs/trace"
	"spotfi/internal/rf"
	"spotfi/internal/sanitize"
)

// Re-exported building blocks of the public API. These are aliases so the
// values returned by the pipeline interoperate with the ones the trace
// tools produce.
type (
	// Packet is one CSI report from an AP (CSI matrix + RSSI + metadata).
	Packet = csi.Packet
	// CalibrationOffsets are per-antenna phase corrections for one AP.
	CalibrationOffsets = calib.Offsets
	// CSIMatrix is the per-antenna per-subcarrier channel matrix.
	CSIMatrix = csi.Matrix
	// PathEstimate is one super-resolution (AoA, ToF) estimate.
	PathEstimate = music.PathEstimate
	// Candidate is a clustered direct-path hypothesis with likelihood.
	Candidate = dpath.Candidate
	// Band is the OFDM measurement grid.
	Band = rf.Band
	// Array is the AP antenna array geometry.
	Array = rf.Array
	// PathLoss is the log-distance RSSI model.
	PathLoss = rf.PathLoss
	// Point is a 2-D location in meters.
	Point = geom.Point
	// Bounds is the rectangular localization search region.
	Bounds = locate.Bounds
)

// AP describes a deployed access point: its position and the direction its
// antenna-array broadside faces. SpotFi assumes AP locations are known
// from one-time measurements (paper Sec. 3).
type AP struct {
	ID          int
	Pos         Point
	NormalAngle float64
}

// SelectionScheme picks the direct path among clustered candidates.
type SelectionScheme int

// Selection schemes (paper Sec. 4.4.2).
const (
	// SelectLikelihood is SpotFi's Eq. 8 maximum-likelihood selection.
	SelectLikelihood SelectionScheme = iota
	// SelectMinToF is the LTEye rule: smallest mean ToF.
	SelectMinToF
	// SelectMaxPower is the CUPID rule: strongest MUSIC spectrum peak.
	SelectMaxPower
)

func (s SelectionScheme) String() string {
	switch s {
	case SelectLikelihood:
		return "spotfi"
	case SelectMinToF:
		return "min-tof"
	case SelectMaxPower:
		return "max-power"
	default:
		return "unknown"
	}
}

// Config configures a Localizer.
type Config struct {
	// Music configures the super-resolution estimator.
	Music music.Params
	// DPath configures clustering and the Eq. 8 likelihood.
	DPath dpath.Config
	// Locate configures the Eq. 9 solver.
	Locate locate.Config
	// Selection picks the direct-path rule (default SpotFi likelihood).
	Selection SelectionScheme
	// Sanitize toggles Algorithm 1 (default on; off only for ablation).
	Sanitize bool
	// Workers bounds pipeline parallelism; 0 means GOMAXPROCS.
	Workers int
	// Calibration holds per-AP antenna phase corrections (from
	// calib.Estimate against a known-position beacon), applied to every
	// packet before estimation. APs without an entry are used as-is.
	Calibration map[int]calib.Offsets
	// Metrics, when non-nil, receives packet, burst and fast-path counts
	// for every burst processed (see NewPipelineMetrics). Stage latencies
	// are the tracer's spotfi_trace_span_seconds.
	Metrics *PipelineMetrics
	// Quality holds the confidence-score scales and weights; the zero
	// value selects quality.DefaultScoreConfig. Every Location carries a
	// score regardless — this only tunes it.
	Quality quality.ScoreConfig
	// QualityMonitor, when non-nil, receives every burst's quality score:
	// it feeds the spotfi_quality_* metrics, the per-AP drift detector,
	// and the /debug/quality scoreboard (see quality.NewMonitor). Nil
	// records nothing.
	QualityMonitor *quality.Monitor
	// FastPath gates the ESPRIT-first estimation fast path. Disabled by
	// default.
	FastPath FastPathConfig
	// ModeLabel names this Localizer's rung on the server's degradation
	// ladder (e.g. "full", "fastpath", "coarse"). When non-empty it is
	// stamped on every Location.Mode and on the burst trace root, so each
	// fix records the fidelity it was computed at. Empty leaves both
	// unset.
	ModeLabel string
}

// FastPathConfig configures the ESPRIT-first fast path: the burst is first
// run through the search-free ESPRIT AoA estimator (~100× cheaper than the
// 2-D MUSIC sweep) and its result is accepted only when the burst looks
// easy on both of the pipeline's confidence components — the signal/noise
// eigen-subspace gap and the Eq. 8 likelihood margin. Any burst failing
// either gate is re-estimated with full MUSIC, so the fast path trades no
// accuracy in the hard cases it cannot judge.
type FastPathConfig struct {
	// Enabled turns the fast path on.
	Enabled bool
	// MinEigenGapDB is the minimum burst-mean signal/noise eigenvalue gap
	// (dB) for the ESPRIT result to be trusted; 0 means the default 10.
	MinEigenGapDB float64
	// MinMargin is the minimum Eq. 8 top-two likelihood margin ∈ [0,1];
	// 0 means the default 0.5.
	MinMargin float64
}

const (
	defaultFastPathMinEigenGapDB = 10
	defaultFastPathMinMargin     = 0.5
)

// PipelineMetrics instruments the Localizer with outcome counters.
// Construct with NewPipelineMetrics to register the canonical metric names
// on a registry; a zero PipelineMetrics (or any nil field) records
// nothing. Stage latencies are timed once, by the trace spans.
type PipelineMetrics struct {
	// PacketsProcessed counts packets that survived stage 1;
	// PacketFailures counts packets dropped by calibration, sanitization,
	// or estimation errors.
	PacketsProcessed *obs.Counter
	PacketFailures   *obs.Counter
	// BurstsProcessed and BurstFailures count ProcessBurst outcomes.
	BurstsProcessed *obs.Counter
	BurstFailures   *obs.Counter
	// APsSkipped counts per-AP bursts LocalizeBursts had to discard.
	APsSkipped *obs.Counter
	// FastPathAccepted counts bursts resolved by the ESPRIT fast path;
	// FastPathFallbacks counts bursts that tried it but were re-estimated
	// with full MUSIC because a confidence gate failed.
	FastPathAccepted  *obs.Counter
	FastPathFallbacks *obs.Counter
}

// NewPipelineMetrics registers the pipeline's metric families on r and
// returns the wired instrument set. Exported series:
//
//	spotfi_packets_processed_total, spotfi_packet_failures_total
//	spotfi_bursts_processed_total, spotfi_burst_failures_total
//	spotfi_aps_skipped_total
//	spotfi_fastpath_accepted_total, spotfi_fastpath_fallback_total
//	spotfi_steering_cache_{hits,misses,entries} (process-wide gauges)
func NewPipelineMetrics(r *obs.Registry) *PipelineMetrics {
	return &PipelineMetrics{
		PacketsProcessed: r.Counter("spotfi_packets_processed_total", "Packets that survived super-resolution estimation.", nil),
		PacketFailures:   r.Counter("spotfi_packet_failures_total", "Packets dropped by calibration, sanitization, or estimation errors.", nil),
		BurstsProcessed:  r.Counter("spotfi_bursts_processed_total", "Per-AP bursts that produced a direct-path report.", nil),
		BurstFailures:    r.Counter("spotfi_burst_failures_total", "Per-AP bursts that failed stages 1-2.", nil),
		APsSkipped:       r.Counter("spotfi_aps_skipped_total", "APs excluded from localization because their burst failed.", nil),
		FastPathAccepted: r.Counter("spotfi_fastpath_accepted_total", "Bursts resolved by the ESPRIT fast path.", nil),
		FastPathFallbacks: r.Counter("spotfi_fastpath_fallback_total",
			"Bursts that tried the ESPRIT fast path but fell back to full MUSIC.", nil),
	}
}

// RegisterSteeringCacheMetrics exports the process-wide MUSIC steering-table
// cache counters on r as gauges. Separate from NewPipelineMetrics because
// the cache is shared by every Localizer in the process, so it should be
// registered once per registry, not once per pipeline.
func RegisterSteeringCacheMetrics(r *obs.Registry) {
	r.GaugeFunc("spotfi_steering_cache_hits", "Steering-table cache hits since process start.", nil,
		func() float64 { h, _, _ := music.SteeringCacheStats(); return float64(h) })
	r.GaugeFunc("spotfi_steering_cache_misses", "Steering-table cache misses (tables built) since process start.", nil,
		func() float64 { _, m, _ := music.SteeringCacheStats(); return float64(m) })
	r.GaugeFunc("spotfi_steering_cache_entries", "Steering tables currently cached.", nil,
		func() float64 { _, _, e := music.SteeringCacheStats(); return float64(e) })
}

// DefaultConfig returns the paper's configuration over search bounds b.
func DefaultConfig(b Bounds) Config {
	cfg := Config{
		Music:     music.DefaultParams(),
		DPath:     dpath.DefaultConfig(),
		Locate:    locate.DefaultConfig(b),
		Selection: SelectLikelihood,
		Sanitize:  true,
	}
	// The paper clusters into 5 groups ("at best five significant paths");
	// indoor environments with 6–8 resolvable paths benefit from a couple
	// of extra clusters so distinct paths are not merged — see the
	// cluster-count ablation bench.
	cfg.DPath.Cluster.K = 7
	return cfg
}

// APReport is the per-AP output of stages 1–2: the selected direct path
// plus everything needed to audit the decision.
type APReport struct {
	APID int
	// AoA is the selected direct-path AoA (radians, relative to the AP
	// array normal).
	AoA float64
	// Likelihood is the Eq. 8 value of the selected candidate.
	Likelihood float64
	// MeanRSSIdBm is the burst-averaged RSSI.
	MeanRSSIdBm float64
	// Candidates are all clustered hypotheses, sorted by likelihood.
	Candidates []Candidate
	// PerPacket holds the raw super-resolution estimates per packet, in
	// the burst's canonical order (see ProcessBurst).
	PerPacket [][]PathEstimate
	// Packets is how many packets contributed.
	Packets int
	// Margin is the top-two Eq. 8 likelihood margin 1 − l₂/l₁ ∈ [0,1]:
	// how decisively the selected cluster beat the runner-up.
	Margin float64
	// EigenGapDB is the burst-mean signal/noise eigen-subspace gap (dB)
	// across the packets that survived estimation.
	EigenGapDB float64
	// STOMeanNs and STOJitterNs are the burst mean and packet-to-packet
	// standard deviation of the Algorithm 1 sanitization slope, in
	// nanoseconds. NaN when sanitization is disabled.
	STOMeanNs, STOJitterNs float64
}

// Localizer runs the SpotFi pipeline.
//
// A music.Estimator is single-goroutine (it owns eigendecomposition and
// sweep arenas), so the per-packet estimation goroutines draw estimators
// from a sync.Pool instead of sharing one. Estimation is deterministic —
// an estimator carries no numerical state between calls — so which pooled
// estimator serves which packet cannot affect results.
type Localizer struct {
	cfg    Config
	pool   sync.Pool // of *music.Estimator, all built from cfg.Music
	esprit *music.ESPRIT
	aps    map[int]AP
}

// New builds a Localizer for the given APs.
func New(cfg Config, aps []AP) (*Localizer, error) {
	// Build one estimator eagerly: it validates cfg.Music and constructs
	// (or finds cached) the shared steering table, so later pool misses
	// cannot fail.
	est, err := music.NewEstimator(cfg.Music)
	if err != nil {
		return nil, err
	}
	var esprit *music.ESPRIT
	if cfg.FastPath.Enabled {
		if cfg.FastPath.MinEigenGapDB == 0 {
			cfg.FastPath.MinEigenGapDB = defaultFastPathMinEigenGapDB
		}
		if cfg.FastPath.MinMargin == 0 {
			cfg.FastPath.MinMargin = defaultFastPathMinMargin
		}
		maxPaths := cfg.Music.MaxPaths
		if lim := cfg.Music.Array.Antennas - 1; maxPaths > lim {
			maxPaths = lim
		}
		esprit, err = music.NewESPRIT(music.AoAParams{
			Band:            cfg.Music.Band,
			Array:           cfg.Music.Array,
			AoAGridRad:      math.Pi / 180, // unused by ESPRIT; must validate
			EigenThreshold:  cfg.Music.EigenThreshold,
			MaxPaths:        maxPaths,
			ForwardBackward: true,
		})
		if err != nil {
			return nil, fmt.Errorf("spotfi: fast path: %w", err)
		}
	}
	if err := cfg.Locate.Validate(); err != nil {
		return nil, err
	}
	if len(aps) == 0 {
		return nil, fmt.Errorf("spotfi: no APs registered")
	}
	m := make(map[int]AP, len(aps))
	for _, ap := range aps {
		if _, dup := m[ap.ID]; dup {
			return nil, fmt.Errorf("spotfi: duplicate AP ID %d", ap.ID)
		}
		m[ap.ID] = ap
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Metrics == nil {
		// Nil obs metrics are no-ops.
		cfg.Metrics = &PipelineMetrics{}
	}
	l := &Localizer{cfg: cfg, esprit: esprit, aps: m}
	l.pool.New = func() any {
		e, err := music.NewEstimator(l.cfg.Music)
		if err != nil {
			return nil // unreachable: cfg.Music validated above
		}
		return e
	}
	l.pool.Put(est)
	return l, nil
}

// APs returns the registered access points, sorted by ID.
func (l *Localizer) APs() []AP {
	out := make([]AP, 0, len(l.aps))
	for _, ap := range l.aps {
		out = append(out, ap)
	}
	slices.SortFunc(out, func(a, b AP) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// estimateMUSIC draws a pooled estimator, runs one packet through it,
// and returns the estimator with a defer — so a panicking estimate
// (poisoned input tripping an internal invariant) does not silently
// drain the pool and degrade every later burst to cold construction.
func (l *Localizer) estimateMUSIC(work *CSIMatrix) ([]PathEstimate, music.Diag, error) {
	me, _ := l.pool.Get().(*music.Estimator)
	if me == nil {
		return nil, music.Diag{}, fmt.Errorf("spotfi: estimator pool exhausted")
	}
	defer l.pool.Put(me)
	return me.EstimatePathsDiag(work)
}

// ProcessBurst runs stages 1–2 on a burst of packets received by one AP
// from one target: sanitization, per-packet super-resolution (in
// parallel), clustering, and direct-path selection. The report is a
// function of the packet set: the burst is processed in Seq order, ties
// broken by flight.PacketHash, whatever order the packets arrived in.
func (l *Localizer) ProcessBurst(apID int, pkts []*Packet) (*APReport, error) {
	return l.ProcessBurstTraced(apID, pkts, nil)
}

// ProcessBurstTraced is ProcessBurst recording stage spans and DSP
// attributes under parent. A nil parent (tracing disabled or the burst
// sampled out) adds no allocations to the hot path.
//
// The burst runs in three stages: prep (clone, calibrate, sanitize — once,
// shared by every estimation attempt), estimate (per-packet
// super-resolution in parallel), and cluster/select. When the ESPRIT fast
// path is enabled, the estimate+cluster stages first run with ESPRIT and
// the result is kept only if it clears the FastPathConfig confidence
// gates; otherwise the same prepped packets are re-estimated with MUSIC.
func (l *Localizer) ProcessBurstTraced(apID int, pkts []*Packet, parent *trace.Span) (*APReport, error) {
	if _, ok := l.aps[apID]; !ok {
		return nil, fmt.Errorf("spotfi: unknown AP %d", apID)
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("spotfi: empty burst for AP %d", apID)
	}
	pkts = canonicalOrder(pkts)
	apSpan := parent.StartSpan(trace.StageAP)
	defer apSpan.End()
	apSpan.SetInt("ap", int64(apID))
	apSpan.SetInt("packets", int64(len(pkts)))

	var rssiSum float64
	for _, p := range pkts {
		rssiSum += p.RSSIdBm
	}

	works, prepErrs, stoNs := l.prepBurst(apID, pkts, apSpan)

	if l.esprit != nil {
		rep, failed, err := l.estimateAndCluster(apID, pkts, works, prepErrs, stoNs, rssiSum, apSpan, estimatorESPRIT)
		if err == nil && rep.EigenGapDB >= l.cfg.FastPath.MinEigenGapDB && rep.Margin >= l.cfg.FastPath.MinMargin {
			apSpan.SetStr("estimator", estimatorESPRIT)
			apSpan.SetInt("fast_path", 1)
			l.countPackets(len(pkts), failed)
			l.cfg.Metrics.FastPathAccepted.Inc()
			l.cfg.Metrics.BurstsProcessed.Inc()
			return rep, nil
		}
		l.cfg.Metrics.FastPathFallbacks.Inc()
	}

	apSpan.SetStr("estimator", estimatorMUSIC)
	rep, failed, err := l.estimateAndCluster(apID, pkts, works, prepErrs, stoNs, rssiSum, apSpan, estimatorMUSIC)
	l.countPackets(len(pkts), failed)
	if err != nil {
		l.cfg.Metrics.BurstFailures.Inc()
		return nil, err
	}
	l.cfg.Metrics.BurstsProcessed.Inc()
	return rep, nil
}

// canonicalOrder returns a copy of pkts sorted by Seq, ties broken by
// content hash, so the per-packet estimates clustering reads and the
// burst's RSSI, STO and eigen-gap sums see one order.
func canonicalOrder(pkts []*Packet) []*Packet {
	out := slices.Clone(pkts)
	slices.SortFunc(out, func(a, b *Packet) int {
		if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
			return c
		}
		return cmp.Compare(flight.PacketHash(a), flight.PacketHash(b))
	})
	return out
}

// Estimator labels stamped on the AP and estimate spans.
const (
	estimatorMUSIC  = "music"
	estimatorESPRIT = "esprit"
)

// countPackets records one burst's packet outcomes. A burst that falls
// back from the fast path is estimated twice but counted once, from the
// pass whose result decides the burst.
func (l *Localizer) countPackets(n, failed int) {
	l.cfg.Metrics.PacketFailures.Add(uint64(failed))
	l.cfg.Metrics.PacketsProcessed.Add(uint64(n - failed))
}

// prepBurst runs the per-packet preparation stage — clone, per-AP
// calibration, Algorithm 1 sanitization — in parallel. It returns the
// prepared CSI (nil where prep failed), the per-packet errors, and the
// sanitization slopes in ns (NaN where unavailable). The prepared matrices
// are estimator-independent, so a fast-path fallback reuses them instead
// of sanitizing twice.
func (l *Localizer) prepBurst(apID int, pkts []*Packet, apSpan *trace.Span) ([]*CSIMatrix, []error, []float64) {
	works := make([]*CSIMatrix, len(pkts))
	errs := make([]error, len(pkts))
	stoNs := make([]float64, len(pkts))
	for i := range stoNs {
		stoNs[i] = math.NaN()
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, l.cfg.Workers)
	for i, p := range pkts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *Packet) {
			defer wg.Done()
			defer func() { <-sem }()
			work := p.CSI.Clone()
			if off, ok := l.cfg.Calibration[apID]; ok {
				if err := calib.Apply(work, off); err != nil {
					errs[i] = err
					return
				}
			}
			if l.cfg.Sanitize {
				ssp := apSpan.StartSpan(trace.StageSanitize)
				sres, err := sanitize.ToF(work, l.cfg.Music.Band.SubcarrierSpacingHz)
				ssp.SetInt("pkt", int64(i))
				ssp.SetFloat("sto_ns", sres.STOEstimate*1e9)
				ssp.End()
				if err != nil {
					errs[i] = err
					return
				}
				stoNs[i] = sres.STOEstimate * 1e9
			}
			works[i] = work
		}(i, p)
	}
	wg.Wait()
	return works, errs, stoNs
}

// estimateAndCluster runs stages 1–2 over already-prepped packets with the
// named estimator and assembles the APReport. It also returns how many
// packets failed prep or estimation, and leaves the packet and burst
// counters to the caller, which knows whether this pass's result was kept.
func (l *Localizer) estimateAndCluster(apID int, pkts []*Packet, works []*CSIMatrix, prepErrs []error, stoNs []float64, rssiSum float64, apSpan *trace.Span, kind string) (*APReport, int, error) {
	perPacket := make([][]PathEstimate, len(pkts))
	errs := make([]error, len(pkts))
	copy(errs, prepErrs)
	// Per-packet eigen gap, NaN until estimation ran: the burst mean feeds
	// the quality scorer, the per-AP drift baselines, and the fast-path
	// gate.
	gapDB := make([]float64, len(pkts))
	for i := range gapDB {
		gapDB[i] = math.NaN()
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, l.cfg.Workers)
	for i := range pkts {
		if errs[i] != nil || works[i] == nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, work *CSIMatrix) {
			defer wg.Done()
			defer func() { <-sem }()
			esp := apSpan.StartSpan(trace.StageEstimate)
			var est []PathEstimate
			var diag music.Diag
			var err error
			if kind == estimatorESPRIT {
				est, diag, err = l.esprit.EstimatePathsDiag(work)
			} else {
				est, diag, err = l.estimateMUSIC(work)
			}
			esp.SetInt("pkt", int64(i))
			esp.SetStr("estimator", kind)
			esp.SetInt("eigen_sweeps", int64(diag.EigenSweeps))
			esp.SetInt("signal_dim", int64(diag.SignalDim))
			esp.SetFloat("eigen_gap_db", diag.EigenGapDB)
			esp.SetInt("grid_theta", int64(diag.GridTheta))
			esp.SetInt("grid_tau", int64(diag.GridTau))
			esp.SetInt("peaks", int64(diag.Peaks))
			esp.SetInt("cells_swept", int64(diag.CellsSwept))
			esp.End()
			if err != nil {
				errs[i] = err
				return
			}
			perPacket[i] = est
			gapDB[i] = diag.EigenGapDB
		}(i, works[i])
	}
	wg.Wait()
	var failed int
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == len(pkts) {
		return nil, failed, fmt.Errorf("spotfi: every packet in the burst failed estimation: %v", firstError(errs))
	}

	// The k-means++ seed is the burst's identity (AP, first Seq, length)
	// over the canonically ordered burst, so concurrent bursts draw
	// independently and a report depends on its packet set alone. The
	// leading 1 keeps the draws of earlier builds, so committed baselines
	// and recorded flight bundles still reproduce bit for bit.
	seed := int64((1 ^ uint64(apID+1)*0x9E3779B97F4A7C15 ^ (pkts[0].Seq+1)*0xBF58476D1CE4E5B9 ^ uint64(len(pkts))) & 0x7FFFFFFFFFFFFFFF)
	csp := apSpan.StartSpan(trace.StageCluster)
	res, err := dpath.Identify(perPacket, l.cfg.DPath, seed)
	if err != nil {
		csp.End()
		return nil, failed, err
	}
	csp.SetInt("clusters", int64(len(res.Candidates)))
	csp.End()

	sel := apSpan.StartSpan(trace.StageSelect)
	defer sel.End()
	if sel.Enabled() {
		// Per-cluster Eq. 8 likelihoods, in the candidates' sorted order.
		ls := make([]float64, len(res.Candidates))
		for i, c := range res.Candidates {
			ls[i] = c.Likelihood
		}
		sel.SetFloats("likelihoods", ls)
		sel.SetStr("scheme", l.cfg.Selection.String())
	}
	var cand Candidate
	var ok bool
	switch l.cfg.Selection {
	case SelectMinToF:
		cand, ok = res.MinToF()
	case SelectMaxPower:
		cand, ok = res.MaxPower()
	default:
		cand, ok = res.Best()
	}
	if !ok {
		return nil, failed, fmt.Errorf("spotfi: no direct-path candidate for AP %d", apID)
	}
	sel.SetFloat("aoa_deg", cand.AoA*180/math.Pi)
	sel.SetFloat("tof_ns", cand.ToF*1e9)
	sel.SetFloat("likelihood", cand.Likelihood)
	stoMean, stoStd := meanStd(stoNs)
	gapMean, _ := meanStd(gapDB)
	return &APReport{
		APID:        apID,
		AoA:         cand.AoA,
		Likelihood:  cand.Likelihood,
		MeanRSSIdBm: rssiSum / float64(len(pkts)),
		Candidates:  res.Candidates,
		PerPacket:   perPacket,
		Packets:     len(pkts),
		Margin:      res.Margin(),
		EigenGapDB:  gapMean,
		STOMeanNs:   stoMean,
		STOJitterNs: stoStd,
	}, failed, nil
}

// meanStd returns the mean and population standard deviation of the finite
// entries of xs (NaN, NaN when none are finite — e.g. sanitize disabled).
func meanStd(xs []float64) (mean, std float64) {
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		mean += x
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	mean /= float64(n)
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(n))
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Location is a localization fix: the fused position plus the quality
// metadata the pipeline derived while producing it. Point is embedded, so
// a Location is usable anywhere a position is expected. The struct is
// comparable.
type Location struct {
	Point
	// Confidence ∈ [0,1] scores how trustworthy this fix is, folding the
	// Eq. 8 likelihood margin, eigen-subspace gap, sanitization-slope
	// stability, cross-AP AoA agreement, Eq. 9 residual, and AP-geometry
	// coverage into one number (see internal/obs/quality).
	Confidence float64
	// Quality is the per-component breakdown of Confidence.
	Quality quality.Breakdown
	// Mode is the degradation-ladder label of the Localizer that produced
	// this fix (Config.ModeLabel; empty when unset) — under overload the
	// server steps down to cheaper estimators, and the fix says so.
	Mode string
}

// Locate fuses per-AP reports into a location estimate (stage 3, Eq. 9).
func (l *Localizer) Locate(reports []*APReport) (Point, error) {
	return l.LocateTraced(reports, nil)
}

// LocateTraced is Locate recording a solver span (iterations, objective,
// solution) under parent. A nil parent is free.
func (l *Localizer) LocateTraced(reports []*APReport, parent *trace.Span) (Point, error) {
	res, err := l.locateFull(reports, parent)
	return res.Location, err
}

// locateFull runs stage 3 and returns the full solver result (objective,
// iterations, per-observation AoA residuals) for quality scoring.
func (l *Localizer) locateFull(reports []*APReport, parent *trace.Span) (locate.Result, error) {
	obs := make([]locate.APObservation, 0, len(reports))
	for _, r := range reports {
		ap, ok := l.aps[r.APID]
		if !ok {
			return locate.Result{}, fmt.Errorf("spotfi: report from unknown AP %d", r.APID)
		}
		obs = append(obs, locate.APObservation{
			Pos:         ap.Pos,
			NormalAngle: ap.NormalAngle,
			AoA:         r.AoA,
			RSSIdBm:     r.MeanRSSIdBm,
			Likelihood:  r.Likelihood,
		})
	}
	lsp := parent.StartSpan(trace.StageLocate)
	defer lsp.End()
	lsp.SetInt("aps", int64(len(reports)))
	res, err := locate.Locate(obs, l.cfg.Locate)
	if err != nil {
		return locate.Result{}, err
	}
	lsp.SetInt("iters", int64(res.Iters))
	lsp.SetFloat("objective", res.Objective)
	lsp.SetFloat("x", res.Location.X)
	lsp.SetFloat("y", res.Location.Y)
	return res, nil
}

// scoreBurst folds the per-AP reports and solver result of one fused burst
// into a quality score. Reports and res.AoAResid are index-aligned (both
// follow the order reports were passed to the solver).
func (l *Localizer) scoreBurst(reports []*APReport, res locate.Result) quality.Score {
	in := quality.BurstInputs{Iters: res.Iters, Objective: res.Objective}
	for i, r := range reports {
		resid := math.NaN()
		if i < len(res.AoAResid) {
			resid = res.AoAResid[i]
		}
		in.APs = append(in.APs, quality.APInputs{
			APID:        r.APID,
			Margin:      r.Margin,
			EigenGapDB:  r.EigenGapDB,
			STOMeanNs:   r.STOMeanNs,
			STOJitterNs: r.STOJitterNs,
			AoAResidRad: resid,
			Likelihood:  r.Likelihood,
			Packets:     r.Packets,
		})
	}
	return quality.ScoreBurst(in, l.cfg.Quality)
}

// SkippedAP records an AP whose burst failed stages 1–2 and was excluded
// from localization, with the cause.
type SkippedAP struct {
	APID int
	Err  error
}

func (s SkippedAP) String() string {
	return fmt.Sprintf("AP %d: %v", s.APID, s.Err)
}

// LocalizeBursts runs the full pipeline: one burst per AP, keyed by AP ID.
// APs whose burst fails stage 1–2 do not kill localization — they are
// excluded and reported in the skipped slice so callers can surface per-AP
// health instead of silently fusing fewer observations — but at least two
// must survive. When localization proceeds, skipped is non-nil exactly
// when at least one AP was dropped. The returned Location carries the
// burst's confidence score and its component breakdown.
func (l *Localizer) LocalizeBursts(bursts map[int][]*Packet) (Location, []*APReport, []SkippedAP, error) {
	return l.LocalizeBurstsTraced(bursts, nil)
}

// LocalizeBurstsTraced is LocalizeBursts recording the full pipeline span
// tree under tr's root. It does not Finish the trace — the caller that owns
// the burst lifecycle does. A nil tr (tracing disabled or the burst sampled
// out) adds no allocations.
func (l *Localizer) LocalizeBurstsTraced(bursts map[int][]*Packet, tr *trace.Trace) (Location, []*APReport, []SkippedAP, error) {
	root := tr.Root()
	ids := make([]int, 0, len(bursts))
	for id := range bursts {
		ids = append(ids, id)
	}
	sortInts(ids)
	var reports []*APReport
	var skipped []SkippedAP
	for _, id := range ids {
		rep, err := l.ProcessBurstTraced(id, bursts[id], root)
		if err != nil {
			skipped = append(skipped, SkippedAP{APID: id, Err: err})
			l.cfg.Metrics.APsSkipped.Inc()
			continue
		}
		reports = append(reports, rep)
	}
	root.SetInt("aps_skipped", int64(len(skipped)))
	if len(reports) < 2 {
		return Location{}, nil, skipped, fmt.Errorf("spotfi: only %d usable AP reports (%d skipped: %v)",
			len(reports), len(skipped), skipped)
	}
	res, err := l.locateFull(reports, root)
	if err != nil {
		return Location{}, reports, skipped, err
	}
	sc := l.scoreBurst(reports, res)
	root.SetFloat("confidence", sc.Overall)
	if l.cfg.ModeLabel != "" {
		root.SetStr("mode", l.cfg.ModeLabel)
	}
	l.cfg.QualityMonitor.Observe(sc)
	return Location{
		Point:      res.Location,
		Confidence: sc.Overall,
		Quality:    sc.Breakdown,
		Mode:       l.cfg.ModeLabel,
	}, reports, skipped, nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// GroundTruthAoA returns the AoA that AP would observe for a target at p —
// the quantity evaluation compares estimates against.
func GroundTruthAoA(ap AP, p Point) float64 {
	return math.Asin(math.Sin(geom.NormalizeAngle(p.Sub(ap.Pos).Angle() - ap.NormalAngle)))
}
