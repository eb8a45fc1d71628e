package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/csi"
	"spotfi/internal/feed"
	"spotfi/internal/obs"
	"spotfi/internal/obs/quality"
	"spotfi/internal/obs/trace"
	"spotfi/internal/server"
)

// spotfi-server defaults the graph keeps (cmd/spotfi-server flags).
const (
	serverQueue         = 64
	serverAdmitTarget   = 150 * time.Millisecond
	serverAdmitDeadline = time.Second
	serverAdmitInterval = 2 * time.Second
	serverModes         = 3
	serverBurstTTL      = 30 * time.Second
	serverTraceSlow     = 5 * time.Second
	serverFeedBuffer    = 64
	serverFeedSubs      = 16
)

// breakerFailuresOutOfReach is the breaker trip threshold the graph uses
// instead of the server's 8: the seeded scenes include hard-multipath
// positions that score low by design, so, as `spotfi-loadgen
// -print-server-flags` does, the threshold is put out of reach. It is not
// loadgen's 1000000: each breaker preallocates one int64 per counted
// failure, and six 8 MB rings would be ballast that pads heap_peak_mb and
// spaces GC cycles out. 1<<14 (128 KiB an AP) is more failures than one
// AP can score in a 30 s breaker window even if every burst counted both
// a low score and a drift breach: 150 offered bursts/s open loop, far
// fewer fixes/s closed loop.
const breakerFailuresOutOfReach = 1 << 14

// job is one emitted burst on its way through the admission queue.
type job struct {
	burst  int
	mac    string
	bursts map[int][]*csi.Packet
	tr     *trace.Trace
}

// outcome is what happened to one offered burst. Each field is written by
// the single goroutine that owns that step of the burst and read only
// after the graph has stopped.
type outcome struct {
	emitted int              // collector emissions carrying this burst
	shed    admit.ShedReason // admission shed, if any
	popped  bool
	rung    admit.Mode // the ladder's rung when the burst was popped
	sojourn time.Duration
	failed  bool // breaker drop, localize error or panic
	fixed   bool
	x, y    float64
	conf    float64
	mode    string
	lat     time.Duration // open loop: schedule → feed; closed loop: call → return
	at      time.Duration // when the fix arrived, since the run's base time
}

// graph is spotfi-server's serving graph built in process: Collector →
// admit queue, ladder and breakers → BuildLadder rungs → feed. The
// closed-loop workload uses only its rungs.
type graph struct {
	tracer   *trace.Tracer
	breakers *admit.BreakerSet
	pm       *spotfi.PipelineMetrics
	rungs    []*spotfi.Localizer

	// Serving part; nil for the closed loop.
	feed      *feed.Feed
	sub       *feed.Subscriber
	queue     *admit.Queue
	ladder    *admit.Ladder
	coll      *server.Collector
	smet      *server.Metrics
	stopSweep func()
	pool      sync.WaitGroup
	subDone   chan struct{}

	out          []outcome
	breakerOpens atomic.Int64
	settled      atomic.Int64 // bursts fixed, shed or failed

	// Open loop: resolves a fix's capture time to its burst.
	base       time.Time
	baseWallNs int64
	sched      []int64

	// Traced runs: the ingest goroutine's span buffer and its open
	// Collector.Add span (the burst handler runs inside Add), and one
	// buffer per worker.
	ingest  *spanBuf
	addSpan int32
	workBuf []*spanBuf
}

// newGraph builds the graph the way cmd/spotfi-server does. Deviations:
// MinAPs is the APs that hear each target, the breaker threshold is out of
// reach, and tracing samples every burst (traced) or none.
func newGraph(sc *scene, w workload, bursts int, traced bool) (*graph, error) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	spotfi.RegisterSteeringCacheMetrics(reg)
	g := &graph{out: make([]outcome, bursts)}
	sample := 0
	if traced {
		sample = 1
	}
	g.tracer = trace.New(trace.Config{
		SampleEvery:   sample,
		SlowThreshold: serverTraceSlow,
		Registry:      reg,
		// Traces stay in memory until the run ends.
		Capacity: max(bursts, 1),
	})
	g.breakers = admit.NewBreakerSet(reg, admit.BreakerConfig{
		Failures: breakerFailuresOutOfReach,
		OnTransition: func(_ int, _, to admit.State, _ admit.FailureKind) {
			if to == admit.StateOpen {
				g.breakerOpens.Add(1)
			}
		},
	})
	monitor := quality.NewMonitor(reg, quality.Config{
		OnBurst: func(sc quality.Score) {
			for _, ap := range sc.PerAP {
				g.breakers.ObserveScore(ap.APID, ap.Score)
			}
		},
		OnDriftBreach: func(apID, breached int) {
			if breached >= 2 {
				g.breakers.Failure(apID, admit.FailDrift)
			}
		},
	})
	cfg := spotfi.DefaultConfig(sc.sc.Cfg.Bounds)
	g.pm = spotfi.NewPipelineMetrics(reg)
	cfg.Metrics = g.pm
	cfg.QualityMonitor = monitor
	var err error
	if g.rungs, err = spotfi.BuildLadder(cfg, sc.aps, serverModes); err != nil {
		return nil, err
	}
	// The AP handshakes: the server reports each AP's first connection to
	// the breakers, which creates that AP's breaker.
	for _, ap := range sc.aps {
		g.breakers.APConnected(ap.ID)
	}
	if w.closed {
		return g, nil
	}

	g.feed = feed.New(feed.Config{
		Buffer:         serverFeedBuffer,
		MaxSubscribers: serverFeedSubs,
		Metrics:        feed.NewMetrics(reg),
	})
	g.queue = admit.NewQueue(admit.QueueConfig{
		Capacity: serverQueue,
		Target:   serverAdmitTarget,
		Deadline: serverAdmitDeadline,
		Interval: serverAdmitInterval,
		Metrics:  admit.NewQueueMetrics(reg),
		OnShed: func(it admit.Item, reason admit.ShedReason) {
			j := it.Payload.(job)
			j.tr.Root().SetStr("shed", string(reason))
			j.tr.Finish()
			g.out[j.burst].shed = reason
			g.settled.Add(1)
		},
	})
	lcfg := admit.DefaultLadderConfig(serverAdmitTarget)
	lcfg.MaxMode = admit.Mode(serverModes - 1)
	g.ladder = admit.NewLadder(reg, lcfg)

	g.smet = server.NewMetrics(reg)
	g.coll, err = server.NewCollector(server.CollectorConfig{
		BatchSize:   w.batch,
		MinAPs:      apsPerTarget,
		MaxBuffered: 40 * w.batch,
		BurstTTL:    serverBurstTTL,
	}, g.onBurst)
	if err != nil {
		return nil, err
	}
	g.coll.SetMetrics(g.smet)
	g.coll.SetTracer(g.tracer)
	g.coll.SetQuarantine(g.breakers.Allow)
	g.stopSweep = g.coll.StartSweeper(serverBurstTTL / 4)

	if g.sub, err = g.feed.Subscribe(); err != nil {
		return nil, err
	}
	g.subDone = make(chan struct{})
	go g.subscribe()

	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < workers; i++ {
		var buf *spanBuf
		if traced {
			buf = newSpanBuf(0)
			g.workBuf = append(g.workBuf, buf)
		}
		g.pool.Add(1)
		go g.worker(buf)
	}
	return g, nil
}

// onBurst is the Collector's burst handler: as in the server, it only
// enqueues.
func (g *graph) onBurst(mac string, bursts map[int][]*csi.Packet, tr *trace.Trace) {
	b := -1
	for _, pkts := range bursts {
		b = burstOfSeq(pkts[0].Seq)
		break
	}
	g.out[b].emitted++
	sp := g.ingest.begin(kPush, b, g.addSpan)
	g.queue.Push(mac, job{burst: b, mac: mac, bursts: bursts, tr: tr})
	g.ingest.end(sp)
}

// worker is one member of the server's localization pool.
func (g *graph) worker(buf *spanBuf) {
	defer g.pool.Done()
	for {
		sp := buf.begin(kPop, -1, -1)
		it, sojourn, ok := g.queue.Pop()
		if !ok {
			return
		}
		j := it.Payload.(job)
		buf.finish(sp, j.burst, int64(sojourn))
		sp = buf.begin(kObserve, j.burst, -1)
		mode := g.ladder.Observe(sojourn)
		buf.end(sp)
		g.out[j.burst].popped = true
		g.out[j.burst].rung = mode
		g.out[j.burst].sojourn = sojourn
		g.localizeOne(g.rungs[mode], j, buf)
	}
}

// localizeOne mirrors cmd/spotfi-server's localizeOne without its logging
// and flight-recorder calls: breaker filter, localize, publish.
func (g *graph) localizeOne(loc *spotfi.Localizer, j job, buf *spanBuf) {
	defer j.tr.Finish()
	defer func() {
		if r := recover(); r != nil {
			g.fail(j.burst)
		}
	}()
	excluded := 0
	for ap := range j.bursts {
		if !g.breakers.Allow(ap) {
			delete(j.bursts, ap)
			excluded++
		}
	}
	if excluded > 0 {
		j.tr.Root().SetInt("breaker_excluded", int64(excluded))
	}
	if len(j.bursts) < 2 {
		j.tr.Root().SetStr("dropped", "breaker")
		g.fail(j.burst)
		return
	}
	capture := captureNs(j.bursts)
	sp := buf.begin(kLocalize, j.burst, -1)
	p, reports, _, err := loc.LocalizeBurstsTraced(j.bursts, j.tr)
	buf.end(sp)
	buf.noteTrace(j.burst, j.tr)
	if err != nil {
		g.fail(j.burst)
		return
	}
	sp = buf.begin(kPublish, j.burst, -1)
	g.feed.Publish(feed.Fix{
		MAC:        j.mac,
		X:          p.X,
		Y:          p.Y,
		Confidence: p.Confidence,
		Mode:       p.Mode,
		CaptureNs:  capture,
		EmitNs:     time.Now().UnixNano(),
		APs:        len(reports),
	})
	buf.end(sp)
}

// fail settles burst b as failed: a breaker drop, localize error or panic.
func (g *graph) fail(b int) {
	g.out[b].failed = true
	g.settled.Add(1)
}

// captureNs is the newest sender timestamp in the burst, as the server
// stamps on every fix.
func captureNs(bursts map[int][]*csi.Packet) int64 {
	var newest int64
	for _, pkts := range bursts {
		for _, p := range pkts {
			newest = max(newest, p.TimestampNs)
		}
	}
	return newest
}

// subscribe drains the fix feed, timing each fix from its burst's
// scheduled time (the capture timestamp the generator stamped).
func (g *graph) subscribe() {
	defer close(g.subDone)
	for fx := range g.sub.Fixes() {
		at := time.Since(g.base)
		due := fx.CaptureNs - g.baseWallNs
		b := sort.Search(len(g.sched), func(i int) bool { return g.sched[i] >= due })
		if b < len(g.sched) && g.sched[b] == due {
			o := &g.out[b]
			o.fixed, o.x, o.y, o.conf, o.mode = true, fx.X, fx.Y, fx.Confidence, fx.Mode
			o.at = at
			o.lat = at - time.Duration(due)
		}
		g.settled.Add(1)
	}
}

// stop drains and tears down the serving part, as the server's graceful
// shutdown does, and reports whether the feed dropped the subscriber.
func (g *graph) stop() (subDropped bool) {
	if g.coll == nil {
		return false
	}
	g.coll.Shutdown()
	g.queue.Close()
	g.pool.Wait()
	g.stopSweep()
	dropped := g.sub.Dropped()
	g.feed.Close()
	<-g.subDone
	return dropped
}

// warmUp runs each rung over its share of the warm corpus with GOMAXPROCS
// concurrent callers, so steering tables, estimator pools and the first
// GC cycles are paid before the timed window, then collects garbage so
// the window starts from the live heap.
func (g *graph) warmUp(warm *traffic, rungs int) error {
	callers := runtime.GOMAXPROCS(0)
	per := warm.bursts / rungs
	for r := 0; r < rungs; r++ {
		var wg sync.WaitGroup
		errs := make([]error, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fr := warm.reader()
				for b := r*per + c; b < (r+1)*per; b += callers {
					bursts, err := fr.decodeBurst(b)
					if err == nil {
						_, _, _, err = g.rungs[r].LocalizeBursts(bursts)
					}
					if err != nil {
						errs[c] = fmt.Errorf("warm-up burst %d on %s: %w", b, admit.Mode(r), err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	runtime.GC()
	return nil
}

// warmTargets is the warm-up corpus: two bursts per caller per rung, on
// the scene's first positions whatever the seed, so set-up does the same
// work on every run.
func warmTargets(w workload) []int32 {
	out := make([]int32, w.rungs()*2*runtime.GOMAXPROCS(0))
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// setUp builds the graph and warms it up; the returned duration is the
// benchmark's setup_s. Garbage left by corpus synthesis is collected
// before the clock starts.
func setUp(sc *scene, w workload, warm *traffic, bursts int, traced bool) (*graph, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	g, err := newGraph(sc, w, bursts, traced)
	if err == nil {
		err = g.warmUp(warm, w.rungs())
	}
	if err != nil {
		if g != nil {
			g.stop()
		}
		return nil, 0, err
	}
	return g, time.Since(start), nil
}
