package spotfi

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"spotfi/internal/admit"
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

// ServiceConfig configures a Service: the deployment, the localization
// pool, and one config per component. A zero component field takes that
// component's default; the service sets every hook, Metrics, Registry and
// Logger field itself. Start from DefaultServiceConfig, which holds the
// values spotfi-server runs with.
type ServiceConfig struct {
	// APs are the deployed access points; at least two.
	APs []AP
	// Bounds is the localization search region.
	Bounds Bounds
	// Workers sizes the localization pool; 0 means GOMAXPROCS.
	Workers int
	// SLOLatencyBound is the packet→fix latency of a good fix for the
	// fix_latency SLO; the histogram counts exactly at every decade.
	SLOLatencyBound time.Duration
	// FlightConfidenceFloor freezes a flight bundle when a fix's
	// confidence falls below it; 0 disables the trigger.
	FlightConfidenceFloor float64
	// Logger receives the service's structured logs; nil means
	// slog.Default().
	Logger *slog.Logger

	// Collector assembles bursts; MaxBuffered 0 means 40 batches, and
	// BurstTTL is also the /readyz staleness bound.
	Collector server.CollectorConfig
	Queue     admit.QueueConfig
	// Ladder's MaxMode bounds the rungs BuildLadder builds; without
	// StepDownAt the thresholds derive from Queue.Target.
	Ladder  admit.LadderConfig
	Breaker admit.BreakerConfig
	Quality quality.Config
	Feed    feed.Config
	SLO     slo.Config
	Trace   trace.Config
	// Flight arms the flight recorder when Dir is set; the service fills
	// Flight.Server so replay rebuilds the same pipeline.
	Flight flight.Config
}

const (
	// sloLatencyTarget and sloShedTarget are the fractions of fixes that
	// must meet SLOLatencyBound and of bursts admission must deliver.
	sloLatencyTarget = 0.99
	sloShedTarget    = 0.95
	// readyShedFloor is the shed rate above which /readyz degrades.
	readyShedFloor = 0.5
	// shedLogEvery bounds how often sheds are summarized in the log.
	shedLogEvery = 5 * time.Second
	// fixLatencySane bounds what counts as an end-to-end latency: sender
	// timestamps match the server clock only when the AP stamps wall-clock
	// time (spotfi-loadgen does; the sim's synthetic timeline does not),
	// and anything else would poison the latency SLO.
	fixLatencySane = 10 * time.Minute
)

// DefaultServiceConfig returns spotfi-server's configuration for aps over
// search bounds b: bursts of 10 packets from at least 3 APs, a 30 s burst
// TTL, three ladder rungs, 1 in 100 bursts traced, a 1 s latency SLO and
// a 0.05 flight confidence floor. Every other value is its component's
// default.
func DefaultServiceConfig(aps []AP, b Bounds) ServiceConfig {
	return ServiceConfig{
		APs:                   aps,
		Bounds:                b,
		SLOLatencyBound:       time.Second,
		FlightConfidenceFloor: 0.05,
		Collector:             server.CollectorConfig{BatchSize: 10, MinAPs: 3, BurstTTL: 30 * time.Second},
		Ladder:                admit.LadderConfig{MaxMode: admit.ModeCoarse},
		Trace:                 trace.Config{SampleEvery: 100, SlowThreshold: 5 * time.Second},
	}
}

// Validate checks the deployment and the settings spotfi-server takes as
// flags, naming the offending field. Cross-field checks run when both
// fields are set.
func (c ServiceConfig) Validate() error {
	bad := func(field, format string, args ...any) error {
		return fmt.Errorf("spotfi: ServiceConfig.%s %s", field, fmt.Sprintf(format, args...))
	}
	switch {
	case len(c.APs) < 2:
		return bad("APs", "has %d APs, need at least two", len(c.APs))
	case c.Collector.BatchSize < 1:
		return bad("Collector.BatchSize", "is %d, must be ≥ 1", c.Collector.BatchSize)
	case c.Collector.MinAPs < 2:
		return bad("Collector.MinAPs", "is %d, must be ≥ 2", c.Collector.MinAPs)
	case c.Queue.Target < 0:
		return bad("Queue.Target", "is %v, must be ≥ 0", c.Queue.Target)
	case c.Queue.Interval < 0:
		return bad("Queue.Interval", "is %v, must be ≥ 0", c.Queue.Interval)
	case c.Queue.Deadline < 0 || c.Queue.Deadline > 0 && c.Queue.Deadline < c.Queue.Target:
		return bad("Queue.Deadline", "is %v, must be ≥ 0 and ≥ Queue.Target (%v)", c.Queue.Deadline, c.Queue.Target)
	case c.Breaker.Failures < 0:
		return bad("Breaker.Failures", "is %d, must be ≥ 0", c.Breaker.Failures)
	case c.SLOLatencyBound <= 0:
		return bad("SLOLatencyBound", "is %v, must be > 0", c.SLOLatencyBound)
	case c.SLO.FastWindow < 0:
		return bad("SLO.FastWindow", "is %v, must be ≥ 0", c.SLO.FastWindow)
	case c.SLO.SlowWindow < 0 || c.SLO.SlowWindow > 0 && c.SLO.SlowWindow < c.SLO.FastWindow:
		return bad("SLO.SlowWindow", "is %v, must be ≥ 0 and ≥ SLO.FastWindow (%v)", c.SLO.SlowWindow, c.SLO.FastWindow)
	case c.SLO.Tick < 0:
		return bad("SLO.Tick", "is %v, must be ≥ 0", c.SLO.Tick)
	}
	return nil
}

// burstJob is one assembled burst on its way through the admission queue.
type burstJob struct {
	mac    string
	bursts map[int][]*csi.Packet
	tr     *trace.Trace
}

// Service is the central SpotFi server as one serving graph: AP
// connections → collector → admission queue → degradation ladder →
// localization pool → fix feed, with circuit breakers fed by the quality
// monitor, SLOs, tracing, the flight recorder and the debug mux around it.
type Service struct {
	cfg    ServiceConfig
	logger *slog.Logger

	reg       *obs.Registry
	tracer    *trace.Tracer
	rec       *flight.Recorder // nil when disarmed; every method is nil-safe
	breakers  *admit.BreakerSet
	monitor   *quality.Monitor
	rungs     []*Localizer
	feed      *feed.Feed
	queue     *admit.Queue
	ladder    *admit.Ladder
	slos      *slo.Tracker
	shedlog   *admit.ShedLogger
	collector *server.Collector
	srv       *server.Server
	mux       *debugmux.Mux

	localizeErrors *obs.Counter
	localizePanics *obs.Counter
	breakerDrops   *obs.Counter
	fixLatency     *obs.Histogram

	pool      sync.WaitGroup
	stopSLO   func()
	stopSweep func()
	drainOnce sync.Once
}

// NewService validates cfg, builds the serving graph and starts its
// localization pool, SLO sampler and burst sweeper. Intake opens with
// Listen; Drain stops everything.
func NewService(cfg ServiceConfig) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Collector.MaxBuffered == 0 {
		cfg.Collector.MaxBuffered = 40 * cfg.Collector.BatchSize
	}
	s := &Service{cfg: cfg, logger: cfg.Logger, reg: obs.NewRegistry()}
	obs.RegisterRuntimeMetrics(s.reg)
	RegisterSteeringCacheMetrics(s.reg)

	tc := cfg.Trace
	tc.Registry, tc.Logger = s.reg, s.logger
	s.tracer = trace.New(tc)

	// Per-AP circuit breakers, fed from three directions: ingest events
	// (reconnect churn, non-finite CSI) via the server's event sink, drift
	// breaches and per-burst AP scores via the quality monitor's hooks.
	// Every transition lands in the flight journal; opens trigger a dump.
	bc := cfg.Breaker
	bc.OnTransition = func(ap int, from, to admit.State, kind admit.FailureKind) {
		s.logger.Warn("AP breaker state change", "ap", ap, "from", from.String(), "to", to.String(), "kind", string(kind))
		s.rec.Note(flight.EventBreaker, ap, "", from.String()+"→"+to.String()+" ("+string(kind)+")", 0)
		if to == admit.StateOpen {
			s.rec.Trigger(flight.TriggerBreakerOpen, fmt.Sprintf("AP %d breaker opened (%s)", ap, string(kind)))
		}
	}
	s.breakers = admit.NewBreakerSet(s.reg, bc)
	qc := cfg.Quality
	qc.OnBurst = func(sc quality.Score) {
		for _, ap := range sc.PerAP {
			s.breakers.ObserveScore(ap.APID, ap.Score)
		}
	}
	qc.OnDriftBreach = func(apID, breached int) {
		s.rec.Note(flight.EventDrift, apID, "", "drift breach", float64(breached))
		// A single breached observable can be an outlier burst; two or
		// more breaching together is a real distribution shift.
		if breached >= 2 {
			s.breakers.Failure(apID, admit.FailDrift)
		}
	}
	s.monitor = quality.NewMonitor(s.reg, qc)

	base := DefaultConfig(cfg.Bounds)
	base.Metrics = NewPipelineMetrics(s.reg)
	base.QualityMonitor = s.monitor
	var err error
	if s.rungs, err = BuildLadder(base, cfg.APs, int(cfg.Ladder.MaxMode)+1); err != nil {
		return nil, err
	}

	s.localizeErrors = s.reg.Counter("spotfi_server_localize_errors_total",
		"Bursts whose localization failed end-to-end.", nil)
	s.localizePanics = s.reg.Counter("spotfi_server_localize_panics_total",
		"Localization worker panics recovered; the burst was discarded.", nil)
	s.breakerDrops = s.reg.Counter("spotfi_server_bursts_breaker_dropped_total",
		"Queued bursts dropped because breakers opened on too many of their APs before a worker picked them up.", nil)
	// HDR-style buckets from 100 µs to 10 s that hit every decade exactly,
	// so a decade SLOLatencyBound's good-count is not snapped.
	s.fixLatency = s.reg.Histogram("spotfi_fix_latency_seconds",
		"Packet→fix latency: newest CSI sender timestamp in the burst to fix emission. Only observed when sender clocks look like wall clocks.",
		obs.ExpBuckets(100e-6, 10, 5), nil)
	s.shedlog = admit.NewShedLogger(s.logger, shedLogEvery, nil)

	ffc := cfg.Feed
	ffc.Metrics = feed.NewMetrics(s.reg)
	s.feed = feed.New(ffc)

	// Burst handlers run on connection goroutines and must never block:
	// they push, and workers pop through the CoDel/deadline policy.
	aqc := cfg.Queue
	aqc.Metrics = admit.NewQueueMetrics(s.reg)
	aqc.OnShed = func(it admit.Item, reason admit.ShedReason) {
		j := it.Payload.(burstJob)
		j.tr.Root().SetStr("shed", string(reason))
		j.tr.Finish()
		s.shedlog.Note(reason)
		s.rec.Note(flight.EventShed, -1, j.mac, string(reason), 0)
	}
	s.queue = admit.NewQueue(aqc)

	lc := cfg.Ladder
	if len(lc.StepDownAt) == 0 {
		def := admit.DefaultLadderConfig(cfg.Queue.Target)
		lc.StepDownAt, lc.StepUpBelow = def.StepDownAt, def.StepUpBelow
	}
	lc.MaxMode = admit.Mode(len(s.rungs) - 1)
	lc.OnChange = func(from, to admit.Mode) {
		s.logger.Warn("degradation mode change", "from", from.String(), "to", to.String())
		s.rec.Note(flight.EventMode, -1, "", from.String()+"→"+to.String(), float64(to))
	}
	s.ladder = admit.NewLadder(s.reg, lc)

	sc := cfg.SLO
	sc.OnBurn = func(objective string, burning bool) {
		v := 0.0
		if burning {
			v = 1
		}
		s.rec.Note(flight.EventSLO, -1, "", objective, v)
		if burning {
			s.rec.Trigger(flight.TriggerSLOBurn, "SLO "+objective+" burning on both windows")
		}
	}
	s.slos = slo.New(sc)
	s.slos.Add(slo.LatencyObjective("fix_latency",
		"packet→fix latency within the bound", s.fixLatency,
		cfg.SLOLatencyBound.Seconds(), sloLatencyTarget))
	s.slos.Add(slo.RatioObjective("admit_shed",
		"bursts delivered (not shed) by admission control", sloShedTarget,
		func() (uint64, uint64) {
			delivered := s.queue.DeliveredTotal()
			return delivered, delivered + s.queue.ShedTotal()
		}))
	s.slos.Register(s.reg)

	sm := server.NewMetrics(s.reg)
	s.collector, err = server.NewCollector(cfg.Collector, func(mac string, bursts map[int][]*csi.Packet, tr *trace.Trace) {
		s.queue.Push(mac, burstJob{mac: mac, bursts: bursts, tr: tr})
	})
	if err != nil {
		return nil, err
	}
	s.collector.SetMetrics(sm)
	s.collector.SetTracer(s.tracer)
	// Quarantined APs are excluded from burst assembly at the source.
	s.collector.SetQuarantine(s.breakers.Allow)
	if s.srv, err = server.New(s.collector, s.logger); err != nil {
		return nil, err
	}
	s.srv.SetMetrics(sm)
	s.srv.SetTimeouts(server.DefaultHandshakeTimeout, server.DefaultIdleTimeout)
	s.srv.SetEventSink(s.breakers)

	// The recorder is the last fallible step, since it starts a writer
	// goroutine. Its embedded ServerConfig pins everything `spotfi-trace
	// replay` needs to rebuild this pipeline, radian AP normals included,
	// so replayed geometry is bit-identical.
	if cfg.Flight.Dir != "" {
		fc := cfg.Flight
		specs := make([]flight.APSpec, len(cfg.APs))
		for i, ap := range cfg.APs {
			specs[i] = flight.APSpec{ID: ap.ID, X: ap.Pos.X, Y: ap.Pos.Y, NormalRad: ap.NormalAngle}
		}
		fc.Server = flight.ServerConfig{
			Bounds: [4]float64{cfg.Bounds.MinX, cfg.Bounds.MinY, cfg.Bounds.MaxX, cfg.Bounds.MaxY},
			APs:    specs,
			Batch:  cfg.Collector.BatchSize,
			MinAPs: cfg.Collector.MinAPs,
			Modes:  len(s.rungs),
		}
		fc.Registry, fc.MetricsSnapshot, fc.Logger = s.reg, s.reg.Snapshot, s.logger
		fc.Traces = func() (recent, slow []trace.TraceData) { return s.tracer.Recent(), s.tracer.Slow() }
		if s.rec, err = flight.New(fc); err != nil {
			return nil, err
		}
		s.logger.Info("flight recorder armed", "dir", fc.Dir)
		// The tap is only installed when armed, so a disarmed server pays
		// nothing on the per-packet path (not even a call).
		s.collector.SetTap(s.rec.TapPacket)
		s.collector.SetPanicHook(func(mac, reason string) {
			s.rec.Note(flight.EventQuarantine, -1, mac, reason, 0)
			s.rec.Trigger(flight.TriggerPanic, "burst handler panicked for "+mac)
		})
	}

	s.mux = s.debugMux()

	// Everything fallible is built; start the goroutines Drain stops.
	s.stopSLO = s.slos.Start()
	s.stopSweep = func() {}
	if ttl := cfg.Collector.BurstTTL; ttl > 0 {
		// Sweep a few times per TTL so eviction lag stays a fraction of
		// the staleness bound.
		s.stopSweep = s.collector.StartSweeper(ttl / 4)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for i := 0; i < workers; i++ {
		s.pool.Add(1)
		go func() {
			defer s.pool.Done()
			// Pop through the admission policy, step the ladder on the
			// observed sojourn, localize on the rung.
			for {
				it, sojourn, ok := s.queue.Pop()
				if !ok {
					return
				}
				s.localizeOne(s.rungs[s.ladder.Observe(sojourn)], it.Payload.(burstJob))
			}
		}()
	}
	return s, nil
}

// debugMux builds the debug listener's endpoints. Every endpoint carries
// a one-line description; debugmux serves the index at /debug/ (and /).
func (s *Service) debugMux() *debugmux.Mux {
	mux := debugmux.New()
	mux.Handle("/metrics", "Prometheus text metrics, including Go runtime telemetry", s.reg.Handler())
	// /healthz is pure liveness (the process is up); /readyz is readiness
	// (at least one AP delivered a packet within the burst TTL and
	// admission control is not hard-shedding, so the server can actually
	// produce fixes).
	mux.HandleFunc("/healthz", "liveness: always ok while the process is up", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/readyz", "readiness: 503 while no fresh AP traffic, hard-shedding, or an SLO burns",
		s.srv.Tracker().ReadinessHandler(s.cfg.Collector.BurstTTL, func() (string, bool) {
			if rate := s.queue.ShedRate(); rate > readyShedFloor {
				return fmt.Sprintf("admission control shedding %.0f%% of bursts", 100*rate), false
			}
			return "", true
		}, s.slos.ReadyCheck()))
	mux.Handle("/debug/traces", "recent and slow burst traces (JSON, ?view=html waterfall)", s.tracer.Handler())
	mux.Handle("/debug/quality", "per-burst confidence scores and per-AP drift scoreboard", s.monitor.Handler())
	mux.Handle("/debug/slo", "multi-window SLO burn rates", s.slos.Handler())
	mux.Handle("/debug/fixes", "live JSON-lines stream of every fix", s.feed.Handler())
	mux.Handle("/debug/flight", "flight recorder: status, bundle index, POST dump to freeze a bundle", s.rec.Handler())
	mux.Handle("/debug/flight/", "", s.rec.Handler())
	mux.HandleFunc("/debug/pprof/", "net/http/pprof profiles", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", "", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", "", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", "", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", "", pprof.Trace)
	return mux
}

// localizeOne runs one burst through the pipeline with panic isolation: a
// numerical blow-up on one poisoned burst must cost that burst, not a
// worker (and with it, eventually, the whole pool). Bursts whose APs were
// quarantined while queued are re-filtered here, so the breaker's view is
// never more than one queue sojourn stale.
func (s *Service) localizeOne(loc *Localizer, j burstJob) {
	// The worker owns the burst lifecycle end: whatever happens below, the
	// trace is completed and handed to its sinks.
	defer j.tr.Finish()
	defer func() {
		if r := recover(); r != nil {
			s.localizePanics.Inc()
			s.logger.Error("localize panic recovered", "mac", j.mac, "trace", j.tr.ID(), "panic", fmt.Sprint(r))
		}
	}()
	excluded := 0
	for ap := range j.bursts {
		if !s.breakers.Allow(ap) {
			delete(j.bursts, ap)
			excluded++
		}
	}
	if excluded > 0 {
		j.tr.Root().SetInt("breaker_excluded", int64(excluded))
	}
	if len(j.bursts) < 2 {
		s.breakerDrops.Inc()
		j.tr.Root().SetStr("dropped", "breaker")
		return
	}
	capture := captureNs(j.bursts)
	p, reports, skipped, err := loc.LocalizeBurstsTraced(j.bursts, j.tr)
	for _, sk := range skipped {
		s.logger.Warn("AP skipped", "mac", j.mac, "trace", j.tr.ID(), "ap", sk.APID, "err", sk.Err)
	}
	if err != nil {
		s.localizeErrors.Inc()
		s.logger.Warn("localize failed", "mac", j.mac, "trace", j.tr.ID(), "err", err)
		return
	}
	emit := time.Now().UnixNano()
	if lat := time.Duration(emit - capture); capture > 0 && lat >= 0 && lat < fixLatencySane {
		s.fixLatency.Observe(lat.Seconds())
	}
	s.feed.Publish(feed.Fix{
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
	s.rec.RecordFix(j.mac, p.Mode, p.X, p.Y, p.Confidence, j.bursts)
	if floor := s.cfg.FlightConfidenceFloor; p.Confidence < floor {
		s.rec.Trigger(flight.TriggerLowConfidence,
			fmt.Sprintf("fix for %s scored %.3f < floor %.3f", j.mac, p.Confidence, floor))
	}
	s.logger.Info("target localized", "mac", j.mac, "trace", j.tr.ID(),
		"x", p.X, "y", p.Y, "aps", len(reports), "confidence", p.Confidence, "mode", p.Mode)
}

// captureNs returns the newest sender timestamp across the burst — the
// fix's capture time on the sender clock.
func captureNs(bursts map[int][]*csi.Packet) int64 {
	var newest int64
	for _, pkts := range bursts {
		for _, p := range pkts {
			newest = max(newest, p.TimestampNs)
		}
	}
	return newest
}

// Listen opens intake: AP connections on addr ("host:0" picks a port).
func (s *Service) Listen(addr string) (net.Addr, error) {
	return s.srv.Listen(addr)
}

// Drain shuts the service down, outermost-in: stop accepting packets,
// stop burst assembly (waiting out any in-flight handler), then let the
// workers localize what is already queued — against timeout, past which
// the remainder is shed as drain rather than holding the process
// hostage. It then flushes the flight recorder's drain bundle and closes
// the fix feed. Drain is idempotent.
func (s *Service) Drain(timeout time.Duration) {
	s.drainOnce.Do(func() { s.drain(timeout) })
}

func (s *Service) drain(timeout time.Duration) {
	if err := s.srv.Close(); err != nil {
		s.logger.Warn("close failed", "err", err)
	}
	discarded := s.collector.Shutdown()
	s.stopSweep()
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.pool.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		shed := s.queue.Abort()
		s.logger.Warn("drain deadline exceeded, shedding queued bursts", "shed", shed)
		<-done
	}
	s.stopSLO()
	// Flush the flight recorder last, after the workers have recorded
	// their final fixes: the drain bundle is the black box's "landing"
	// snapshot, covering the shutdown itself.
	if s.rec != nil {
		if name, err := s.rec.DumpNow(flight.TriggerDrain, "graceful drain"); err != nil {
			s.logger.Warn("drain flight bundle failed", "err", err)
		} else {
			s.logger.Info("drain flight bundle flushed", "bundle", name)
		}
		s.rec.Close()
	}
	s.feed.Close()
	s.shedlog.Flush()
	s.logger.Info("drained", "discarded_partial_packets", discarded)
}

// Handler returns the debug mux: /metrics, /healthz, /readyz, the
// /debug/ endpoints and pprof.
func (s *Service) Handler() http.Handler { return s.mux }

// Registry returns the registry every component exports its metrics on.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Feed returns the fix feed behind /debug/fixes.
func (s *Service) Feed() *feed.Feed { return s.feed }

// Breakers returns the per-AP circuit breakers.
func (s *Service) Breakers() *admit.BreakerSet { return s.breakers }

// Ladder returns the degradation ladder.
func (s *Service) Ladder() *admit.Ladder { return s.ladder }

// Recorder returns the flight recorder, nil when Flight.Dir is unset.
func (s *Service) Recorder() *flight.Recorder { return s.rec }
