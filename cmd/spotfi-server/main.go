// Command spotfi-server runs the central SpotFi localization server: it
// accepts AP connections, assembles per-target CSI bursts, runs the SpotFi
// pipeline on each complete burst, and prints location estimates.
//
// AP positions are supplied as repeated -ap flags: "id,x,y,normalDeg".
//
// Complete bursts are localized by a bounded worker pool (-workers) fed
// through an admission-controlled queue (-queue, -admit-*) rather than one
// goroutine per burst. Under overload the queue sheds the *stalest* work
// first instead of tail-dropping the freshest: bursts that waited past
// -admit-deadline are shed outright, a CoDel-style control law
// (-admit-target, -admit-interval) sheds at an increasing rate while the
// standing queue persists, and at capacity the chattiest target's oldest
// burst is evicted so one device cannot starve the fleet. Shedding is
// summarized in the log at most once per -admit-log-every and exported as
// spotfi_admit_shed_total{reason=...}.
//
// Load also degrades fidelity before it degrades availability: a mode
// ladder steps the pipeline down from full MUSIC to the ESPRIT fast path
// (and on to the coarse rung, which today runs the fast path too) as
// queue sojourn crosses thresholds derived from -admit-target, and steps
// back up under hysteresis. Every fix carries the mode it was computed
// in.
//
// Per-AP circuit breakers (-breaker-*) quarantine misbehaving APs: drift
// breaches, per-burst quality collapses, non-finite CSI streams, and
// reconnect churn trip an AP's breaker open, excluding it from
// localization (its packets are still accepted) until a cooldown elapses
// and a few healthy probation bursts close the breaker again. Breaker
// states are exported as spotfi_ap_breaker_state{ap=...}.
//
// The ingest path is hardened against misbehaving APs: connections that
// stall mid-handshake or go silent are reaped after -idle-timeout,
// buffered packets of bursts that never complete are evicted after
// -burst-ttl, and a panic while localizing one burst is recovered and
// counted instead of killing a worker.
//
// On SIGINT/SIGTERM the server drains gracefully: intake stops, queued
// bursts are localized against -drain-timeout, and whatever remains past
// the deadline is shed and counted.
//
// With -debug-addr set, an HTTP listener exposes /metrics (Prometheus text
// format, including Go runtime telemetry), /healthz (liveness), /readyz
// (readiness: 503 until at least one AP has delivered a packet within
// -burst-ttl, while admission control is shedding more than
// -admit-shed-floor of bursts, or while an SLO is burning), /debug/traces
// (recent burst traces as JSON, or an HTML waterfall with ?view=html),
// /debug/quality (per-burst confidence scores and the per-AP drift/health
// scoreboard, JSON or ?view=html), /debug/slo (multi-window SLO burn
// rates, JSON or ?view=html), /debug/fixes (a bounded-fanout JSON-lines
// stream of every fix: MAC, position, confidence, mode, capture and emit
// timestamps — slow subscribers are dropped and counted), and
// net/http/pprof under /debug/pprof/.
//
// Two SLOs are tracked with Google SRE-style multi-window burn rates
// (-slo-fast-window/-slo-slow-window): packet→fix latency
// (-slo-latency-bound at -slo-latency-target) and admission shed rate
// (-slo-shed-target). Both export spotfi_slo_* gauges; when both windows
// of an objective burn faster than -slo-burn-threshold, /readyz degrades
// with the objective named in the reason.
//
// Every fix carries a confidence score in [0,1] folding DSP internals
// (likelihood margin, eigen gap, STO stability, AoA agreement, solver
// convergence, AP geometry); bursts scoring below -quality-floor are
// counted in spotfi_quality_low_total.
//
// Per-burst tracing samples 1 in -trace-sample bursts (0 disables) and
// always retains traces slower than -trace-slow. Logs are structured
// (-log-format text|json) and carry trace/burst/AP IDs.
//
// With -flight-dir set, a black-box flight recorder (internal/flight)
// taps every ingested packet into bounded per-AP rings and journals the
// server's control decisions (sheds, mode changes, breaker flips,
// quarantines, SLO burn edges, per-fix confidence). On an anomaly — a
// breaker opening, an SLO starting to burn, the shed rate crossing
// -admit-shed-floor, a burst-handler panic, a fix below
// -flight-confidence-floor, or POST /debug/flight/dump — it freezes an
// atomic bundle (SFT1 frames, journal, fix records, metrics snapshot,
// traces, goroutine dump, effective config) under -flight-dir, rate-
// limited by -flight-cooldown and bounded by -flight-max-bundles.
// Graceful drain flushes a final bundle. `spotfi-trace replay` re-runs a
// bundle's fixes through the real pipeline bit-for-bit; the debug
// listener serves recorder status and bundles at /debug/flight, and an
// index of every debug endpoint at /debug/.
//
// Usage:
//
//	spotfi-server -listen 127.0.0.1:7100 \
//	    -ap 0,0.4,0.4,45 -ap 1,15.6,0.4,135 -ap 2,8,9.7,-90 \
//	    -bounds 0,0,16,10 [-batch 10] [-minaps 3] \
//	    [-workers N] [-queue 64] [-idle-timeout 90s] [-burst-ttl 30s] \
//	    [-admit-target 150ms] [-admit-deadline 1s] [-admit-interval 2s] \
//	    [-admit-shed-floor 0.5] [-admit-log-every 5s] [-modes 3] \
//	    [-breaker-window 30s] [-breaker-failures 8] [-breaker-cooldown 15s] \
//	    [-breaker-probes 3] [-drain-timeout 5s] \
//	    [-trace-sample 100] [-trace-slow 5s] [-log-format text] \
//	    [-quality-floor 0.25] [-debug-addr 127.0.0.1:7101] \
//	    [-flight-dir /var/lib/spotfi/flight] [-flight-frames 256] \
//	    [-flight-cooldown 30s] [-flight-max-bundles 8] \
//	    [-flight-confidence-floor 0.05]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/cliutil"
	"spotfi/internal/csi"
	"spotfi/internal/debugmux"
	"spotfi/internal/feed"
	"spotfi/internal/flight"
	"spotfi/internal/obs"
	"spotfi/internal/obs/quality"
	"spotfi/internal/obs/slo"
	"spotfi/internal/obs/trace"
	"spotfi/internal/server"
)

type burstJob struct {
	mac    string
	bursts map[int][]*csi.Packet
	tr     *trace.Trace
}

// localizeMetrics holds the serving-loop series. Registration happens
// once, here, before any worker starts: Registry registration takes a
// lock, so hot paths only touch the returned handles.
type localizeMetrics struct {
	localizeErrors *obs.Counter
	localizePanics *obs.Counter
	breakerDrops   *obs.Counter
	fixLatency     *obs.Histogram
}

func newLocalizeMetrics(reg *obs.Registry) *localizeMetrics {
	return &localizeMetrics{
		localizeErrors: reg.Counter("spotfi_server_localize_errors_total",
			"Bursts whose localization failed end-to-end.", nil),
		localizePanics: reg.Counter("spotfi_server_localize_panics_total",
			"Localization worker panics recovered; the burst was discarded.", nil),
		breakerDrops: reg.Counter("spotfi_server_bursts_breaker_dropped_total",
			"Queued bursts dropped because breakers opened on too many of their APs before a worker picked them up.", nil),
		// HDR-style buckets from 100 µs to 10 s; the grid hits 1.0 (and
		// every decade) exactly, so the default -slo-latency-bound is an
		// exact bucket bound and the SLO's good-count is not snapped.
		fixLatency: reg.Histogram("spotfi_fix_latency_seconds",
			"Packet→fix latency: newest CSI sender timestamp in the burst to fix emission. Only observed when sender clocks look like wall clocks.",
			obs.ExpBuckets(100e-6, 10, 5), nil),
	}
}

// fixLatencySane bounds what we are willing to call an end-to-end
// latency: sender timestamps are only comparable to the server clock
// when the AP stamps wall-clock time (spotfi-loadgen does; the sim's
// synthetic 100 ms-per-packet timeline does not). Outside this window
// the observation would poison the latency SLO, so it is skipped.
const fixLatencySane = 10 * time.Minute

// captureNs returns the newest sender timestamp across the burst — the
// fix's capture time on the sender clock.
func captureNs(bursts map[int][]*csi.Packet) int64 {
	var newest int64
	for _, pkts := range bursts {
		for _, p := range pkts {
			if p.TimestampNs > newest {
				newest = p.TimestampNs
			}
		}
	}
	return newest
}

// localizeOne runs one burst through the pipeline with panic isolation: a
// numerical blow-up on one poisoned burst must cost that burst, not a
// worker (and with it, eventually, the whole pool). Bursts whose APs were
// quarantined while queued are re-filtered here, so the breaker's view is
// never more than one queue sojourn stale.
func localizeOne(loc *spotfi.Localizer, breakers *admit.BreakerSet, lm *localizeMetrics, fixes *feed.Feed, rec *flight.Recorder, confFloor float64, logger *slog.Logger, j burstJob) {
	// The worker owns the burst lifecycle end: whatever happens below, the
	// trace is completed and handed to its sinks.
	defer j.tr.Finish()
	defer func() {
		if r := recover(); r != nil {
			lm.localizePanics.Inc()
			logger.Error("localize panic recovered", "mac", j.mac, "trace", j.tr.ID(), "panic", fmt.Sprint(r))
		}
	}()
	excluded := 0
	for ap := range j.bursts {
		if !breakers.Allow(ap) {
			delete(j.bursts, ap)
			excluded++
		}
	}
	if excluded > 0 {
		j.tr.Root().SetInt("breaker_excluded", int64(excluded))
	}
	if len(j.bursts) < 2 {
		lm.breakerDrops.Inc()
		j.tr.Root().SetStr("dropped", "breaker")
		return
	}
	capture := captureNs(j.bursts)
	p, reports, skipped, err := loc.LocalizeBurstsTraced(j.bursts, j.tr)
	for _, s := range skipped {
		logger.Warn("AP skipped", "mac", j.mac, "trace", j.tr.ID(), "ap", s.APID, "err", s.Err)
	}
	if err != nil {
		lm.localizeErrors.Inc()
		logger.Warn("localize failed", "mac", j.mac, "trace", j.tr.ID(), "err", err)
		return
	}
	emit := time.Now().UnixNano()
	if lat := time.Duration(emit - capture); capture > 0 && lat >= 0 && lat < fixLatencySane {
		lm.fixLatency.Observe(lat.Seconds())
	}
	fixes.Publish(feed.Fix{
		MAC:        j.mac,
		X:          p.X,
		Y:          p.Y,
		Confidence: p.Confidence,
		Mode:       p.Mode,
		CaptureNs:  capture,
		EmitNs:     emit,
		APs:        len(reports),
	})
	// j.bursts is the post-breaker-filter composition at this point —
	// exactly what the pipeline consumed, which is what replay must feed.
	rec.RecordFix(j.mac, p.Mode, p.X, p.Y, p.Confidence, j.bursts)
	if p.Confidence < confFloor {
		rec.Trigger(flight.TriggerLowConfidence,
			fmt.Sprintf("fix for %s scored %.3f < floor %.3f", j.mac, p.Confidence, confFloor))
	}
	logger.Info("target localized", "mac", j.mac, "trace", j.tr.ID(),
		"x", p.X, "y", p.Y, "aps", len(reports), "confidence", p.Confidence, "mode", p.Mode)
}

// effectiveFlags snapshots every flag's effective value (defaults
// included) for the flight bundle: a bundle should say how the server was
// actually configured, not just which flags were passed.
func effectiveFlags() map[string]string {
	m := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7100", "TCP address to listen on")
	boundsStr := flag.String("bounds", "0,0,16,10", "search bounds minX,minY,maxX,maxY (m)")
	batch := flag.Int("batch", 10, "packets per AP per localization burst")
	minAPs := flag.Int("minaps", 3, "minimum APs with a full batch before localizing")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "localization worker goroutines")
	queue := flag.Int("queue", 64, "burst queue capacity; at capacity the chattiest target's oldest burst is evicted")
	idleTimeout := flag.Duration("idle-timeout", server.DefaultIdleTimeout,
		"reap AP connections silent for this long (0 disables)")
	burstTTL := flag.Duration("burst-ttl", 30*time.Second,
		"evict buffered packets of incomplete bursts older than this (0 disables)")
	admitTarget := flag.Duration("admit-target", 150*time.Millisecond,
		"acceptable standing queue sojourn; CoDel shedding engages above it")
	admitDeadline := flag.Duration("admit-deadline", time.Second,
		"hard freshness budget: queued bursts older than this are shed")
	admitInterval := flag.Duration("admit-interval", 2*time.Second,
		"CoDel observation interval before shedding starts")
	admitShedFloor := flag.Float64("admit-shed-floor", 0.5,
		"shed-rate fraction above which /readyz reports degraded")
	admitLogEvery := flag.Duration("admit-log-every", 5*time.Second,
		"summarize shed bursts in the log at most this often")
	modes := flag.Int("modes", 3,
		"degradation ladder depth: 1 full MUSIC only, 2 adds the ESPRIT fast path, 3 adds the coarse rung (same estimator as the fast path)")
	breakerWindow := flag.Duration("breaker-window", 30*time.Second,
		"failure window for tripping an AP's circuit breaker")
	breakerFailures := flag.Int("breaker-failures", 8,
		"failures within -breaker-window that trip an AP's breaker open")
	breakerCooldown := flag.Duration("breaker-cooldown", 15*time.Second,
		"quarantine before an open breaker probes the AP again (doubles per reopen)")
	breakerProbes := flag.Int("breaker-probes", 3,
		"healthy probation bursts that close a half-open breaker")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second,
		"shutdown budget for localizing already-queued bursts; the rest are shed")
	debugAddr := flag.String("debug-addr", "", "HTTP address for /metrics, /healthz, /debug/traces, and /debug/pprof (disabled if empty)")
	traceSample := flag.Int("trace-sample", 100, "trace 1 in N bursts (0 disables tracing)")
	traceSlow := flag.Duration("trace-slow", 5*time.Second, "always retain traces of bursts slower than this end-to-end")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	qualityFloor := flag.Float64("quality-floor", quality.DefaultFloor,
		"confidence score below which a fix counts as low-quality")
	fixFeedBuffer := flag.Int("fix-feed-buffer", 64,
		"per-subscriber fix-feed buffer; a /debug/fixes client this far behind is dropped")
	fixFeedSubs := flag.Int("fix-feed-subs", 16, "max concurrent /debug/fixes subscribers")
	sloLatencyBound := flag.Duration("slo-latency-bound", time.Second,
		"packet→fix latency bound defining a good fix for the latency SLO")
	sloLatencyTarget := flag.Float64("slo-latency-target", 0.99,
		"fraction of fixes that must meet -slo-latency-bound")
	sloShedTarget := flag.Float64("slo-shed-target", 0.95,
		"fraction of bursts admission control must deliver (not shed)")
	sloFastWindow := flag.Duration("slo-fast-window", 5*time.Minute, "fast burn-rate window")
	sloSlowWindow := flag.Duration("slo-slow-window", time.Hour, "slow burn-rate window")
	sloTick := flag.Duration("slo-tick", 10*time.Second, "SLO source sampling interval")
	sloBurnThreshold := flag.Float64("slo-burn-threshold", 6,
		"burn rate both windows must exceed before an SLO counts as burning (degrades /readyz)")
	flightDir := flag.String("flight-dir", "",
		"arm the flight recorder and write capture bundles under this directory (disabled if empty)")
	flightFrames := flag.Int("flight-frames", 256, "flight recorder: raw frames retained per AP")
	flightCooldown := flag.Duration("flight-cooldown", 30*time.Second,
		"flight recorder: minimum spacing between automatic bundle dumps; extra triggers are coalesced")
	flightMaxBundles := flag.Int("flight-max-bundles", 8,
		"flight recorder: on-disk bundle cap; oldest bundles are pruned")
	flightConfFloor := flag.Float64("flight-confidence-floor", 0.05,
		"flight recorder: dump a bundle when a fix's confidence falls below this (0 disables)")
	version := flag.Bool("version", false, "print build version and exit")
	var aps cliutil.APList
	flag.Var(&aps, "ap", "AP spec id,x,y,normalDeg (repeatable)")
	flag.Parse()

	if *version {
		fmt.Println("spotfi-server", cliutil.ReadBuild())
		return
	}
	logger, err := cliutil.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if len(aps) < 2 {
		fmt.Fprintln(os.Stderr, "spotfi-server: need at least two -ap flags")
		os.Exit(2)
	}
	if *workers < 1 || *queue < 1 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -workers and -queue must be ≥ 1")
		os.Exit(2)
	}
	if *idleTimeout < 0 || *burstTTL < 0 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -idle-timeout and -burst-ttl must be ≥ 0")
		os.Exit(2)
	}
	if *traceSample < 0 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -trace-sample must be ≥ 0")
		os.Exit(2)
	}
	if *admitTarget <= 0 || *admitInterval <= 0 || *admitDeadline < *admitTarget {
		fmt.Fprintln(os.Stderr, "spotfi-server: -admit-target/-admit-interval must be > 0 and -admit-deadline ≥ -admit-target")
		os.Exit(2)
	}
	if *admitShedFloor <= 0 || *admitShedFloor > 1 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -admit-shed-floor must be in (0,1]")
		os.Exit(2)
	}
	if *modes < 1 || *modes > 3 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -modes must be 1, 2, or 3")
		os.Exit(2)
	}
	if *breakerWindow <= 0 || *breakerCooldown <= 0 || *breakerFailures < 1 || *breakerProbes < 1 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -breaker-* values must be positive")
		os.Exit(2)
	}
	if *drainTimeout < 0 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -drain-timeout must be ≥ 0")
		os.Exit(2)
	}
	bounds, err := cliutil.ParseBounds(*boundsStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(2)
	}

	if *qualityFloor < 0 || *qualityFloor > 1 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -quality-floor must be in [0,1]")
		os.Exit(2)
	}
	if *fixFeedBuffer < 1 || *fixFeedSubs < 1 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -fix-feed-buffer and -fix-feed-subs must be ≥ 1")
		os.Exit(2)
	}
	if *sloLatencyBound <= 0 || *sloFastWindow <= 0 || *sloSlowWindow < *sloFastWindow || *sloTick <= 0 || *sloBurnThreshold <= 0 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -slo-latency-bound/-slo-*-window/-slo-tick/-slo-burn-threshold must be positive, slow ≥ fast")
		os.Exit(2)
	}
	if *sloLatencyTarget <= 0 || *sloLatencyTarget >= 1 || *sloShedTarget <= 0 || *sloShedTarget >= 1 {
		fmt.Fprintln(os.Stderr, "spotfi-server: -slo-latency-target and -slo-shed-target must be in (0,1)")
		os.Exit(2)
	}
	if *flightDir != "" && (*flightFrames < 1 || *flightMaxBundles < 1 || *flightCooldown <= 0 ||
		*flightConfFloor < 0 || *flightConfFloor > 1) {
		fmt.Fprintln(os.Stderr, "spotfi-server: -flight-frames/-flight-max-bundles must be ≥ 1, -flight-cooldown > 0, -flight-confidence-floor in [0,1]")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	cliutil.RegisterBuildInfo(reg)
	obs.RegisterRuntimeMetrics(reg)
	spotfi.RegisterSteeringCacheMetrics(reg)
	tracer := trace.New(trace.Config{
		SampleEvery:   *traceSample,
		SlowThreshold: *traceSlow,
		Registry:      reg,
		Logger:        logger,
	})

	cfg := spotfi.DefaultConfig(bounds)

	// Flight recorder (nil when disarmed: every method is a nil-safe
	// no-op, so the wiring below costs nothing without -flight-dir). The
	// embedded ServerConfig pins everything `spotfi-trace replay` needs to
	// rebuild this exact pipeline — including the radian AP normals, so
	// replayed geometry is bit-identical.
	var rec *flight.Recorder
	if *flightDir != "" {
		specs := make([]flight.APSpec, len(aps))
		for i, ap := range aps {
			specs[i] = flight.APSpec{ID: ap.ID, X: ap.Pos.X, Y: ap.Pos.Y, NormalRad: ap.NormalAngle}
		}
		rec, err = flight.New(flight.Config{
			Dir:         *flightDir,
			FramesPerAP: *flightFrames,
			Cooldown:    *flightCooldown,
			MaxBundles:  *flightMaxBundles,
			Server: flight.ServerConfig{
				Bounds: [4]float64{bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY},
				APs:    specs,
				Batch:  *batch,
				MinAPs: *minAPs,
				Modes:  *modes,
				Seed:   cfg.Seed,
			},
			Flags:           effectiveFlags(),
			Registry:        reg,
			MetricsSnapshot: reg.Snapshot,
			Traces: func() (recent, slow []trace.TraceData) {
				return tracer.Recent(), tracer.Slow()
			},
			Logger: logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "spotfi-server:", err)
			os.Exit(1)
		}
		logger.Info("flight recorder armed", "dir", *flightDir,
			"frames_per_ap", *flightFrames, "cooldown", *flightCooldown, "max_bundles", *flightMaxBundles)
	}

	// Per-AP circuit breakers, fed from three directions: ingest events
	// (reconnect churn, non-finite CSI) via the server's event sink, drift
	// breaches and per-burst AP scores via the quality monitor's hooks.
	// Every transition lands in the flight journal; opens trigger a dump.
	breakers := admit.NewBreakerSet(reg, admit.BreakerConfig{
		Window:   *breakerWindow,
		Failures: *breakerFailures,
		Cooldown: *breakerCooldown,
		Probes:   *breakerProbes,
		OnTransition: func(ap int, from, to admit.State, kind admit.FailureKind) {
			logger.Warn("AP breaker state change", "ap", ap, "from", from.String(), "to", to.String(), "kind", string(kind))
			rec.Note(flight.EventBreaker, ap, "", from.String()+"→"+to.String()+" ("+string(kind)+")", 0)
			if to == admit.StateOpen {
				rec.Trigger(flight.TriggerBreakerOpen,
					fmt.Sprintf("AP %d breaker opened (%s)", ap, string(kind)))
			}
		},
	})
	monitor := quality.NewMonitor(reg, quality.Config{
		Floor: *qualityFloor,
		OnBurst: func(sc quality.Score) {
			for _, ap := range sc.PerAP {
				breakers.ObserveScore(ap.APID, ap.Score)
			}
		},
		OnDriftBreach: func(apID, breached int) {
			rec.Note(flight.EventDrift, apID, "", "drift breach", float64(breached))
			// A single breached observable can be an outlier burst; two or
			// more breaching together is a real distribution shift.
			if breached >= 2 {
				breakers.Failure(apID, admit.FailDrift)
			}
		},
	})

	cfg.Metrics = spotfi.NewPipelineMetrics(reg)
	cfg.QualityMonitor = monitor
	locs, err := spotfi.BuildLadder(cfg, aps, *modes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(1)
	}

	lm := newLocalizeMetrics(reg)
	shedlog := admit.NewShedLogger(logger, *admitLogEvery, nil)

	// Fix feed: every successful localization is published to /debug/fixes
	// subscribers (bounded fanout; slow clients are dropped, not waited on).
	fixes := feed.New(feed.Config{
		Buffer:         *fixFeedBuffer,
		MaxSubscribers: *fixFeedSubs,
		Metrics:        feed.NewMetrics(reg),
	})

	// Admission-controlled burst queue: burst handlers run on connection
	// goroutines, so they must never block; workers pop through the
	// CoDel/deadline policy so they never waste time on stale bursts.
	adq := admit.NewQueue(admit.QueueConfig{
		Capacity: *queue,
		Target:   *admitTarget,
		Deadline: *admitDeadline,
		Interval: *admitInterval,
		Metrics:  admit.NewQueueMetrics(reg),
		OnShed: func(it admit.Item, reason admit.ShedReason) {
			j := it.Payload.(burstJob)
			j.tr.Root().SetStr("shed", string(reason))
			j.tr.Finish()
			shedlog.Note(reason)
			rec.Note(flight.EventShed, -1, j.mac, string(reason), 0)
		},
	})

	// Degradation ladder: sojourn thresholds derived from the admission
	// target, bounded by -modes.
	lcfg := admit.DefaultLadderConfig(*admitTarget)
	lcfg.MaxMode = admit.Mode(*modes - 1)
	lcfg.OnChange = func(from, to admit.Mode) {
		logger.Warn("degradation mode change", "from", from.String(), "to", to.String())
		rec.Note(flight.EventMode, -1, "", from.String()+"→"+to.String(), float64(to))
	}
	ladder := admit.NewLadder(reg, lcfg)

	// SLO burn-rate tracking over the latency histogram and the admission
	// queue's delivered/shed counters, exported as spotfi_slo_* and folded
	// into /readyz: a sustained burn on both windows degrades readiness.
	slos := slo.New(slo.Config{
		FastWindow:    *sloFastWindow,
		SlowWindow:    *sloSlowWindow,
		Tick:          *sloTick,
		BurnThreshold: *sloBurnThreshold,
		OnBurn: func(objective string, burning bool) {
			v := 0.0
			if burning {
				v = 1
			}
			rec.Note(flight.EventSLO, -1, "", objective, v)
			if burning {
				rec.Trigger(flight.TriggerSLOBurn, "SLO "+objective+" burning on both windows")
			}
		},
	})
	slos.Add(slo.LatencyObjective("fix_latency",
		"packet→fix latency within the bound", lm.fixLatency,
		sloLatencyBound.Seconds(), *sloLatencyTarget))
	slos.Add(slo.RatioObjective("admit_shed",
		"bursts delivered (not shed) by admission control", *sloShedTarget,
		func() (uint64, uint64) {
			delivered := adq.DeliveredTotal()
			return delivered, delivered + adq.ShedTotal()
		}))
	slos.Register(reg)
	stopSLO := slos.Start()
	defer stopSLO()

	var pool sync.WaitGroup
	for i := 0; i < *workers; i++ {
		pool.Add(1)
		//lint:allow gospawn this loop is the bounded localization pool itself (WaitGroup-joined, -workers sized)
		go func() {
			defer pool.Done()
			for {
				it, sojourn, ok := adq.Pop()
				if !ok {
					return
				}
				mode := ladder.Observe(sojourn)
				localizeOne(locs[mode], breakers, lm, fixes, rec, *flightConfFloor, logger, it.Payload.(burstJob))
			}
		}()
	}

	metrics := server.NewMetrics(reg)
	collector, err := server.NewCollector(server.CollectorConfig{
		BatchSize:   *batch,
		MinAPs:      *minAPs,
		MaxBuffered: 40 * *batch,
		BurstTTL:    *burstTTL,
	}, func(mac string, bursts map[int][]*csi.Packet, tr *trace.Trace) {
		adq.Push(mac, burstJob{mac: mac, bursts: bursts, tr: tr})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(1)
	}
	collector.SetMetrics(metrics)
	collector.SetTracer(tracer)
	// Quarantined APs are excluded from burst assembly at the source.
	collector.SetQuarantine(breakers.Allow)
	if rec != nil {
		// The tap is only installed when armed, so a disarmed server pays
		// literally nothing on the per-packet path (not even a call).
		collector.SetTap(rec.TapPacket)
		collector.SetPanicHook(func(mac, reason string) {
			rec.Note(flight.EventQuarantine, -1, mac, reason, 0)
			rec.Trigger(flight.TriggerPanic, "burst handler panicked for "+mac)
		})
	}
	if *burstTTL > 0 {
		// Sweep a few times per TTL so eviction lag stays a fraction of
		// the staleness bound.
		stopSweeper := collector.StartSweeper(*burstTTL / 4)
		defer stopSweeper()
	}

	srv, err := server.New(collector, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(1)
	}
	srv.SetMetrics(metrics)
	srv.SetTimeouts(server.DefaultHandshakeTimeout, *idleTimeout)
	srv.SetEventSink(breakers)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(1)
	}
	logger.Info("spotfi-server listening", "addr", addr.String(), "aps", len(aps), "workers", *workers, "modes", *modes)

	if *debugAddr != "" {
		// Every endpoint carries a one-line description; debugmux serves
		// the discoverable index at /debug/ (and /).
		mux := debugmux.New()
		mux.Handle("/metrics", "Prometheus text metrics, including Go runtime telemetry", reg.Handler())
		// /healthz is pure liveness (the process is up); /readyz is
		// readiness (at least one AP delivered a packet within -burst-ttl
		// and admission control is not hard-shedding, so the server can
		// actually produce fixes).
		mux.HandleFunc("/healthz", "liveness: always ok while the process is up", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.Handle("/readyz", "readiness: 503 while no fresh AP traffic, hard-shedding, or an SLO burns",
			srv.Tracker().ReadinessHandler(*burstTTL, func() (string, bool) {
				if rate := adq.ShedRate(); rate > *admitShedFloor {
					return fmt.Sprintf("admission control shedding %.0f%% of bursts", 100*rate), false
				}
				return "", true
			}, slos.ReadyCheck()))
		mux.Handle("/debug/traces", "recent and slow burst traces (JSON, ?view=html waterfall)", tracer.Handler())
		mux.Handle("/debug/quality", "per-burst confidence scores and per-AP drift scoreboard", monitor.Handler())
		mux.Handle("/debug/slo", "multi-window SLO burn rates", slos.Handler())
		mux.Handle("/debug/fixes", "live JSON-lines stream of every fix", fixes.Handler())
		mux.Handle("/debug/flight", "flight recorder: status, bundle index, POST dump to freeze a bundle", rec.Handler())
		mux.Handle("/debug/flight/", "", rec.Handler())
		mux.HandleFunc("/debug/pprof/", "net/http/pprof profiles", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", "", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", "", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", "", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", "", pprof.Trace)
		//lint:allow gospawn debug HTTP listener lives for the whole process; no join needed
		go func() {
			logger.Info("debug endpoints up", "url", "http://"+*debugAddr+"/debug/")
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				logger.Warn("debug listener failed", "err", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down, draining queued bursts", "deadline", *drainTimeout)

	// Graceful drain, outermost-in: stop accepting packets, stop burst
	// assembly (waiting out any in-flight handler), then let the workers
	// localize what is already queued — against a deadline, past which the
	// remainder is shed and counted rather than holding the process
	// hostage.
	if err := srv.Close(); err != nil {
		logger.Warn("close failed", "err", err)
	}
	discarded := collector.Shutdown()
	adq.Close()
	done := make(chan struct{})
	//lint:allow gospawn shutdown-only helper; joined via done before exit on both paths
	go func() {
		pool.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(*drainTimeout):
		shed := adq.Abort()
		logger.Warn("drain deadline exceeded, shedding queued bursts", "shed", shed)
		<-done
	}
	// Flush the flight recorder last, after the workers have recorded
	// their final fixes: the drain bundle is the black box's "landing"
	// snapshot, covering the shutdown itself.
	if rec != nil {
		if name, derr := rec.DumpNow(flight.TriggerDrain, "graceful drain"); derr != nil {
			logger.Warn("drain flight bundle failed", "err", derr)
		} else {
			logger.Info("drain flight bundle flushed", "bundle", name)
		}
		rec.Close()
	}
	fixes.Close()
	shedlog.Flush()
	logger.Info("drained", "discarded_partial_packets", discarded)
}
