package spotfi

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotfi/internal/admit"
	"spotfi/internal/apnode"
	"spotfi/internal/chaos"
	"spotfi/internal/csi"
	"spotfi/internal/feed"
	"spotfi/internal/flight"
	"spotfi/internal/server"
	"spotfi/internal/sim"
	"spotfi/internal/testbed"
)

// cycleSource synthesizes an unbounded packet stream round-robining over
// several targets — one AP's view of a crowded floor, used to flood the
// server far past its localization capacity.
type cycleSource struct {
	syns []*sim.Synthesizer
	macs []string
	i    int
}

func (s *cycleSource) Next() (*csi.Packet, error) {
	k := s.i % len(s.syns)
	s.i++
	return s.syns[k].NextPacket(s.macs[k]), nil
}

// phasedSource switches one long-lived AP stream between two regimes
// without reconnecting (a reconnect would — correctly — count as breaker
// churn): an unthrottled multi-target flood while *flood* is set, then a
// throttled single-target trickle the server can comfortably keep up with.
type phasedSource struct {
	flood    *atomic.Bool
	floodSrc apnode.PacketSource
	calmSrc  apnode.PacketSource
	throttle time.Duration
}

func (s *phasedSource) Next() (*csi.Packet, error) {
	if s.flood.Load() {
		return s.floodSrc.Next()
	}
	time.Sleep(s.throttle)
	return s.calmSrc.Next()
}

// TestOverloadSoak floods the full deployed path — AP agents → wire →
// server → collector → admission queue → degraded-mode localization — at
// far above worker capacity, with one AP phase-skewed the whole flood.
// The overload-resilience layer must hold the line on every axis at once:
//
//   - admission control sheds (capacity eviction, hard deadline, CoDel)
//     instead of queue sojourn growing without bound — every burst that
//     does reach a worker waited less than the freshness deadline;
//   - the mode ladder steps the pipeline down under pressure and fixes
//     keep flowing, stamped with the degraded mode;
//   - the skewed AP's circuit breaker trips open on its collapsed burst
//     scores, quarantining it out of localization;
//   - once the flood stops, the breaker half-opens, probes the now-healthy
//     AP back in, and the ladder climbs back to full fidelity;
//   - drain tears everything down without leaking goroutines.
func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak run")
	}
	d := testbed.Office(42)
	const (
		batch       = 6
		skewedAP    = 0
		floodTgts   = 6 // concurrent targets during the flood
		calmTgt     = 4 // the one target of the recovery phase
		workers     = 2
		queueCap    = 32
		admitTarget = 60 * time.Millisecond
		// deadline is a bucket bound of the sojourn histogram, so the p99
		// check below reads an exact count.
		deadline = 500 * time.Millisecond
	)

	// Flight recorder armed for the whole soak: the skewed AP's breaker
	// opening must freeze a bundle mid-flood, and the drain dump at the
	// end feeds the replay gate. SPOTFI_FLIGHT_BUNDLE_DIR (set by CI)
	// keeps the bundles around as an artifact; locally they land in a
	// temp dir.
	bundleDir := os.Getenv("SPOTFI_FLIGHT_BUNDLE_DIR")
	if bundleDir == "" {
		bundleDir = t.TempDir()
	}
	cfg := DefaultServiceConfig(deploymentAPs(d), d.Bounds)
	cfg.Workers = workers
	cfg.Collector = server.CollectorConfig{BatchSize: batch, MinAPs: 3, MaxBuffered: 64, BurstTTL: 500 * time.Millisecond}
	cfg.Queue = admit.QueueConfig{Capacity: queueCap, Target: admitTarget, Deadline: deadline, Interval: 250 * time.Millisecond}
	cfg.Ladder.HoldGood = 4
	// UnhealthyBelow sits far under the healthy fleet's occasional
	// single-burst dips (~0.15 of bursts score 0.1–0.3 even on clean APs):
	// the sick AP's trip signal in this soak is its non-finite CSI, which
	// fires deterministically on the ingest path.
	cfg.Breaker = admit.BreakerConfig{
		Window:         10 * time.Second,
		Failures:       6,
		Cooldown:       1500 * time.Millisecond,
		Probes:         2,
		UnhealthyBelow: 0.05,
	}
	// Small rings and a long cooldown: a dump serializes every ring, and
	// on a starved CI core repeated mid-flood dumps would steal the CPU
	// the breaker's probation needs. One breaker-open bundle is the
	// assertion; the drain bundle carries the replayable end state. The
	// low-confidence trigger is off: a low-confidence dump early in the
	// flood would use up the cooldown before the breaker opens.
	cfg.Flight = flight.Config{Dir: bundleDir, FramesPerAP: 128, Cooldown: 30 * time.Second, MaxBundles: 4}
	cfg.FlightConfidenceFloor = 0
	svc, addr := startService(t, cfg)
	breakers, ladder, rec := svc.Breakers(), svc.Ladder(), svc.Recorder()

	// Every fix the pool publishes, and the deepest rung the ladder was
	// seen on.
	var (
		fixMu       sync.Mutex
		fixes       []feed.Fix
		maxModeSeen atomic.Int64
	)
	seeMode := func(m admit.Mode) {
		for {
			seen := maxModeSeen.Load()
			if int64(m) <= seen || maxModeSeen.CompareAndSwap(seen, int64(m)) {
				return
			}
		}
	}
	sub := subscribe(t, svc)
	fixesDone := make(chan struct{})
	go func() {
		defer close(fixesDone)
		for fx := range sub.Fixes() {
			for m := admit.ModeFull; m <= admit.ModeCoarse; m++ {
				if fx.Mode == m.String() {
					seeMode(m)
				}
			}
			fixMu.Lock()
			fixes = append(fixes, fx)
			fixMu.Unlock()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	waitUntil := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		waitFor(t, what, timeout, 10*time.Millisecond, cond)
	}
	shedTotal := func(m map[string]float64, r admit.ShedReason) float64 {
		return m[`spotfi_admit_shed_total{reason="`+string(r)+`"}`]
	}

	goroutinesBefore := runtime.NumGoroutine()

	// One long-lived connection per AP for the whole soak: the flood is a
	// traffic regime, not a reconnect storm, so breaker churn accounting
	// stays clean. The skewed AP streams through a miscalibrated RF chain
	// (inter-antenna phase ramp + per-packet jitter) for the flood phase.
	var flood atomic.Bool
	flood.Store(true)
	var agents sync.WaitGroup
	for apIdx := range d.APs {
		syns := make([]*sim.Synthesizer, floodTgts)
		macs := make([]string, floodTgts)
		for tgt := 0; tgt < floodTgts; tgt++ {
			syn, err := sim.NewSynthesizer(d.Link(apIdx, tgt), d.Band, d.Array, d.Imp,
				rand.New(rand.NewSource(int64(100*apIdx+tgt))))
			if err != nil {
				t.Fatalf("AP %d target %d: %v", apIdx, tgt, err)
			}
			syns[tgt] = syn
			macs[tgt] = testbed.TargetMAC(tgt)
		}
		var floodSrc apnode.PacketSource = &cycleSource{syns: syns, macs: macs}
		if apIdx == skewedAP {
			// A miscalibrated RF chain (inter-antenna phase ramp + jitter)
			// plus sporadic NaN CSI: the phase skew poisons the AP's burst
			// scores; the non-finite packets are rejected at ingest and
			// each one feeds the AP's breaker a hard failure.
			floodSrc = chaos.WrapSource(floodSrc, chaos.SourceConfig{
				Seed:           int64(7 + apIdx),
				PhaseRampRad:   1.8,
				PhaseJitterRad: 0.8,
				NaNProb:        0.02,
			})
		}
		calmSyn, err := sim.NewSynthesizer(d.Link(apIdx, calmTgt), d.Band, d.Array, d.Imp,
			rand.New(rand.NewSource(int64(9000+apIdx))))
		if err != nil {
			t.Fatalf("AP %d calm: %v", apIdx, err)
		}
		agent := &apnode.Agent{
			APID:       apIdx,
			ServerAddr: addr,
			Source: &phasedSource{
				flood:    &flood,
				floodSrc: floodSrc,
				// ~100 ms per packet per AP ⇒ a handful of bursts per
				// second fleet-wide: comfortably under two -race workers'
				// localization throughput, so queue sojourn collapses and
				// the ladder can climb.
				calmSrc:  &apnode.SynthSource{Syn: calmSyn, TargetMAC: testbed.TargetMAC(calmTgt)},
				throttle: 100 * time.Millisecond,
			},
		}
		agents.Add(1)
		go func(a *apnode.Agent, id int) {
			defer agents.Done()
			if err := a.RunWithRetry(ctx, 100, 5*time.Millisecond); err != nil && ctx.Err() == nil {
				t.Errorf("agent %d: %v", id, err)
			}
		}(agent, apIdx)
	}

	// --- Flood phase: ~6 unthrottled target streams per AP against 2
	// workers. Hold the flood until every overload mechanism has visibly
	// engaged. ---
	fixCount := func() int {
		fixMu.Lock()
		defer fixMu.Unlock()
		return len(fixes)
	}
	waitUntil("admission control shedding", 30*time.Second, func() bool {
		m := scrapeMetrics(t, svc)
		total := 0.0
		for _, r := range admit.ShedReasons() {
			total += shedTotal(m, r)
		}
		return total > 0
	})
	waitUntil("ladder stepping down", 30*time.Second, func() bool {
		seeMode(ladder.Current())
		return maxModeSeen.Load() >= int64(admit.ModeFastPath)
	})
	waitUntil("skewed AP breaker open", 30*time.Second, func() bool {
		return breakers.State(skewedAP) == admit.StateOpen
	})
	waitUntil("flight bundle frozen on breaker open", 30*time.Second, func() bool {
		return len(rec.Bundles()) > 0
	})
	waitUntil("fixes flowing during overload", 30*time.Second, func() bool {
		return fixCount() > 0
	})
	floodFixes := fixCount()

	// --- Recovery phase: drop to a trickle the workers easily absorb. The
	// skewed AP is clean now; its breaker must probe it back in, and the
	// ladder must climb back to full fidelity. ---
	flood.Store(false)
	// The reopen backoff may have pushed the cooldown to its 8× cap during
	// the flood (every half-open probe met another NaN), so allow a full
	// backoff cycle before the clean probes land.
	waitUntil("breaker closing after probation", 60*time.Second, func() bool {
		return breakers.State(skewedAP) == admit.StateClosed
	})
	waitUntil("ladder back to full fidelity", 30*time.Second, func() bool {
		return ladder.Current() == admit.ModeFull
	})
	waitUntil("fixes flowing after recovery", 30*time.Second, func() bool {
		return fixCount() > floodFixes
	})

	// A post-recovery full-mode fix for the calm target lands near truth.
	waitUntil("full-mode fix for the calm target", 30*time.Second, func() bool {
		fixMu.Lock()
		defer fixMu.Unlock()
		for i := len(fixes) - 1; i >= 0; i-- {
			f := fixes[i]
			if f.MAC == testbed.TargetMAC(calmTgt) && f.Mode == admit.ModeFull.String() {
				p := Point{X: f.X, Y: f.Y}
				if e := p.Dist(d.Targets[calmTgt]); e > 3.5 {
					t.Fatalf("recovered fix %v is %.2f m from truth %v", p, e, d.Targets[calmTgt])
				}
				return true
			}
		}
		return false
	})

	// --- Drain: stop intake, stop assembly, localize what is queued,
	// join the pool, and freeze the drain bundle — the full journal and
	// every still-covered fix, which CI hands to the replay gate. Nothing
	// may leak. ---
	cancel()
	agents.Wait()
	svc.Drain(30 * time.Second)
	<-fixesDone
	var drainBundle string
	for _, b := range rec.Bundles() {
		if strings.HasSuffix(b.Name, "-"+string(flight.TriggerDrain)) {
			drainBundle = b.Name
		}
	}
	if drainBundle == "" {
		t.Fatal("no drain bundle written")
	}

	// Every delivered burst respected the hard freshness deadline — the
	// stale-first shed policy means overload manifests as sheds, not as
	// unbounded queue sojourn.
	m := scrapeMetrics(t, svc)
	delivered := m["spotfi_admit_queue_sojourn_seconds_count"]
	if delivered == 0 {
		t.Fatal("no delivered sojourns recorded")
	}
	withinDeadline := m[fmt.Sprintf(`spotfi_admit_queue_sojourn_seconds_bucket{le="%g"}`, deadline.Seconds())]
	if int(withinDeadline) <= int(delivered)*99/100 {
		t.Fatalf("only %v of %v delivered bursts waited within the %v freshness deadline (p99 above it)",
			withinDeadline, delivered, deadline)
	}

	// Degraded-mode fixes actually happened and carried their mode label.
	degraded := 0
	fixMu.Lock()
	for _, f := range fixes {
		if f.Mode != "" && f.Mode != admit.ModeFull.String() {
			degraded++
		}
	}
	total := len(fixes)
	fixMu.Unlock()
	if degraded == 0 {
		t.Error("no fix was produced in a degraded mode despite the ladder stepping down")
	}

	// The flood pushed well past capacity, so capacity eviction must have
	// fired (alongside whatever the deadline and CoDel shed).
	if shedTotal(m, admit.ShedFull) == 0 {
		t.Error("no capacity eviction at 5× overload — fair shedding never engaged")
	}

	// The pool and the agent goroutines are gone; nothing else grew.
	waitUntil("goroutines back to baseline", 10*time.Second, func() bool {
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})

	// The flood left a breaker-open bundle behind, and the drain bundle
	// carries replayable fixes: its frame rings must still cover at least
	// the most recent fixes, and the frames must read back as SFT1.
	sawBreakerBundle := false
	for _, b := range rec.Bundles() {
		if strings.HasSuffix(b.Name, "-"+string(flight.TriggerBreakerOpen)) {
			sawBreakerBundle = true
		}
	}
	if !sawBreakerBundle {
		t.Error("no breaker-open flight bundle despite the breaker tripping")
	}
	loaded, err := flight.LoadBundle(rec.BundlePath(drainBundle))
	if err != nil {
		t.Fatalf("loading drain bundle: %v", err)
	}
	if len(loaded.Packets) == 0 {
		t.Error("drain bundle has no frames")
	}
	coveredFixes := 0
	for _, fr := range loaded.Manifest.Fixes {
		if fr.Covered {
			coveredFixes++
		}
	}
	if len(loaded.Manifest.Fixes) > 0 && coveredFixes == 0 {
		t.Error("drain bundle recorded fixes but none is frame-covered — rings evicted everything")
	}

	t.Logf("soak: %d fixes (%d degraded), %v of %v delivered within %v, sheds full=%v stale=%v codel=%v drain=%v, max mode %v, breaker trips=%v",
		total, degraded, withinDeadline, delivered, deadline,
		shedTotal(m, admit.ShedFull), shedTotal(m, admit.ShedStale), shedTotal(m, admit.ShedCoDel), shedTotal(m, admit.ShedDrain),
		admit.Mode(maxModeSeen.Load()), breakers.Snapshot())
}
