package spotfi

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"spotfi/internal/admit"
	"spotfi/internal/loadgen"
	"spotfi/internal/obs/slo"
	"spotfi/internal/server"
)

// TestLoadgenEndToEnd drives a real in-process server — wire listener,
// collector, admission queue, localization workers, fix feed, SLO
// tracker, debug mux — with the open-loop load generator, and checks the
// whole measurement chain: fixes stream back with measurable packet→fix
// latency, localization error against the scene's ground truth is sane,
// the surge phase sheds at the admission queue, and the SLO tracker sees
// the burn.
func TestLoadgenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("load-generator soak")
	}
	scene, err := loadgen.NewScene(loadgen.SceneConfig{
		Seed: 42, APs: 5, Targets: 8, Positions: 6, APsPerTarget: 3, Batch: 6,
	})
	if err != nil {
		t.Fatal(err)
	}

	aps := make([]AP, len(scene.APs))
	for i, ap := range scene.APs {
		aps[i] = AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
	}
	cfg := DefaultServiceConfig(aps, scene.Cfg.Bounds)
	// One worker behind a four-burst queue: the surge offers many times
	// the bursts per second one worker localizes, so admission control
	// sheds deterministically.
	cfg.Workers = 1
	cfg.Queue = admit.QueueConfig{
		Capacity: 4,
		Target:   60 * time.Millisecond,
		Deadline: 400 * time.Millisecond,
		Interval: 100 * time.Millisecond,
	}
	// The MinAPs slack and breaker threshold spotfi-loadgen
	// -print-server-flags gives a real server: synthetic hard-multipath
	// positions would otherwise quarantine healthy APs and wedge assembly.
	cfg.Collector = server.CollectorConfig{
		BatchSize:   scene.Cfg.Batch,
		MinAPs:      scene.Cfg.APsPerTarget - 1,
		MaxBuffered: 64,
		BurstTTL:    500 * time.Millisecond,
	}
	cfg.Breaker.Failures = 1000000
	cfg.SLO = slo.Config{
		FastWindow:    2 * time.Second,
		SlowWindow:    4 * time.Second,
		Tick:          100 * time.Millisecond,
		BurnThreshold: 2,
	}
	svc, addr := startService(t, cfg)
	debug := httptest.NewServer(svc.Handler())
	defer debug.Close()

	// Warm at a rate one worker absorbs, then surge far past it.
	phases, err := loadgen.ParsePhases("warm:2s@4,surge:3s@600")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := loadgen.Run(ctx, loadgen.RunConfig{
		ServerAddr: addr,
		DebugURL:   debug.URL,
		Scene:      scene,
		Phases:     phases,
		Settle:     1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clean teardown before asserting: no goroutine should still be
	// feeding the stats we read.
	svc.Drain(10 * time.Second)

	if res.FeedErr != "" {
		t.Fatalf("feed error: %s", res.FeedErr)
	}
	if res.SendErrs != 0 {
		t.Fatalf("%d AP streams lost", res.SendErrs)
	}
	if res.TotalFixes == 0 {
		t.Fatal("no fixes flowed")
	}
	if len(res.Phases) != 2 {
		t.Fatalf("%d phases, want 2", len(res.Phases))
	}
	warm, surge := res.Phases[0], res.Phases[1]

	if warm.Offered == 0 || surge.Offered <= warm.Offered {
		t.Fatalf("offered bursts warm=%d surge=%d", warm.Offered, surge.Offered)
	}
	if warm.Fixes == 0 {
		t.Fatal("warm phase produced no fixes")
	}
	// Latency was measured end to end, with plausible values: positive,
	// under the test's whole runtime.
	if warm.Latency.Count() == 0 {
		t.Fatal("no latency samples in warm phase")
	}
	if p50 := warm.Latency.Quantile(0.5); p50 <= 0 || p50 > 30 {
		t.Fatalf("warm p50 latency %.4fs implausible", p50)
	}
	// Ground truth maps back through the MAC: localization error is sane
	// for a full-fidelity fix (decimeters-to-meters, not tens of meters).
	if len(warm.Errors) == 0 {
		t.Fatal("no localization-error samples in warm phase")
	}
	best := warm.Errors[0]
	for _, e := range warm.Errors {
		if e < best {
			best = e
		}
	}
	if best > 8 {
		t.Fatalf("best warm-phase error %.2fm — ground-truth mapping is broken", best)
	}

	// The surge overwhelmed the worker: admission control shed, and the
	// generator saw it in the /metrics deltas.
	if surge.Counters.Shed == 0 {
		t.Fatal("surge phase shed nothing — overload never engaged")
	}
	if surge.Counters.Delivered == 0 {
		t.Fatal("surge phase delivered nothing")
	}
	m := scrapeMetrics(t, svc)
	var shed float64
	for _, r := range admit.ShedReasons() {
		shed += m[`spotfi_admit_shed_total{reason="`+string(r)+`"}`]
	}
	if delivered := m["spotfi_admit_queue_sojourn_seconds_count"]; shed == 0 || delivered == 0 {
		t.Fatalf("queue totals shed=%v delivered=%v", shed, delivered)
	}

	// The SLO layer saw the same story: the snapshot parses, covers both
	// objectives, and the shed objective's fast window is burning hot.
	var st slo.Status
	if err := json.Unmarshal(res.SLO, &st); err != nil {
		t.Fatalf("/debug/slo snapshot: %v\n%s", err, res.SLO)
	}
	if len(st.Objectives) != 2 {
		t.Fatalf("SLO snapshot has %d objectives, want 2", len(st.Objectives))
	}
	var shedObj *slo.ObjectiveStatus
	for i := range st.Objectives {
		if st.Objectives[i].Name == "admit_shed" {
			shedObj = &st.Objectives[i]
		}
	}
	if shedObj == nil {
		t.Fatalf("admit_shed objective missing: %s", res.SLO)
	}
	fast := shedObj.Windows[0]
	if fast.Total == 0 || fast.BadFraction == 0 {
		t.Fatalf("shed SLO fast window saw no burn: %+v", fast)
	}

	// The report derives without losing the story.
	report := loadgen.NewReport("e2e", time.Now().UTC().Format(time.RFC3339), loadgen.ReportOpts{}, res)
	if report.Phases[1].ShedRate == 0 {
		t.Fatal("report lost the surge shed rate")
	}
	if report.Phases[0].LatencyP50Ms == 0 || report.Phases[0].ErrMedianM == 0 {
		t.Fatalf("report lost warm-phase latency/error: %+v", report.Phases[0])
	}
	t.Logf("e2e: %d fixes, warm p50 %.1fms err median %.2fm, surge shed rate %.2f",
		res.TotalFixes, report.Phases[0].LatencyP50Ms, report.Phases[0].ErrMedianM, report.Phases[1].ShedRate)
}
