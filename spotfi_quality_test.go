package spotfi

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spotfi/internal/apnode"
	"spotfi/internal/chaos"
	"spotfi/internal/obs/quality"
	"spotfi/internal/server"
	"spotfi/internal/sim"
	"spotfi/internal/testbed"
)

// TestQualityObservabilityEndToEnd drives the deployed path over real TCP
// with one AP's NIC phase-skewed (a miscalibrated RF chain plus per-packet
// phase jitter — faults invisible to framing-level defenses) and asserts
// the estimate-quality layer sees it: the skewed AP's health on
// /debug/quality degrades below every healthy AP's, its per-burst
// confidence contribution is the lowest, and /metrics exports the
// spotfi_quality_score histogram and per-AP spotfi_ap_health gauges.
func TestQualityObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live-system run")
	}
	d := testbed.Office(42)
	const (
		targetIdx = 4
		skewedAP  = 0
		batch     = 8
		waves     = 6
	)

	cfg := DefaultServiceConfig(deploymentAPs(d), d.Bounds)
	cfg.Collector = server.CollectorConfig{BatchSize: batch, MinAPs: len(d.APs), MaxBuffered: 64}
	// Every wave reconnects each AP, and the skewed AP scores unhealthy
	// on every burst; at the default threshold its breaker would open and
	// wedge assembly, which waits for all APs. This test watches quality,
	// not quarantine.
	cfg.Breaker.Failures = 64
	svc, addr := startService(t, cfg)
	sub := subscribe(t, svc)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Each wave streams one full burst from every AP; several waves give
	// the drift detector enough bursts to settle per-AP baselines.
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for apIdx := range d.APs {
			syn, err := sim.NewSynthesizer(d.Link(apIdx, targetIdx), d.Band, d.Array, d.Imp,
				rand.New(rand.NewSource(int64(1000*wave+apIdx))))
			if err != nil {
				t.Fatalf("AP %d: %v", apIdx, err)
			}
			agent := &apnode.Agent{
				APID:       apIdx,
				ServerAddr: addr,
				Source: &apnode.SynthSource{
					Syn:       syn,
					TargetMAC: testbed.TargetMAC(targetIdx),
					Limit:     batch,
				},
			}
			if apIdx == skewedAP {
				// Constant inter-antenna ramp biases the AoA ~35°; the
				// per-packet jitter makes it wander another ±15° within
				// each burst.
				agent.Source = chaos.WrapSource(agent.Source, chaos.SourceConfig{
					Seed:           int64(7000 + wave),
					PhaseRampRad:   1.8,
					PhaseJitterRad: 0.8,
				})
			}
			wg.Add(1)
			go func(a *apnode.Agent, id int) {
				defer wg.Done()
				if err := a.RunWithRetry(ctx, 10, 5*time.Millisecond); err != nil && ctx.Err() == nil {
					t.Errorf("agent %d: %v", id, err)
				}
			}(agent, apIdx)
		}
		wg.Wait()
	}

	deadline := time.After(30 * time.Second)
	got := 0
	for got < waves {
		select {
		case fix := <-sub.Fixes():
			got++
			if fix.Confidence <= 0 || fix.Confidence > 1 {
				t.Fatalf("fix confidence %v out of (0,1]", fix.Confidence)
			}
		case <-deadline:
			t.Fatalf("only %d of %d bursts localized", got, waves)
		}
	}
	checkNoLocalizeErrors(t, svc)

	// --- /debug/quality: the skewed AP reads unhealthy, the rest do not. ---
	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/quality", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/quality = %d: %s", rr.Code, rr.Body.String())
	}
	var snap quality.Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/quality JSON: %v", err)
	}
	if snap.Bursts < waves {
		t.Fatalf("monitor saw %d bursts, want ≥ %d", snap.Bursts, waves)
	}
	if len(snap.APs) != len(d.APs) {
		t.Fatalf("scoreboard has %d APs, want %d: %+v", len(snap.APs), len(d.APs), snap.APs)
	}
	healthByAP := map[int]float64{}
	for _, ap := range snap.APs {
		healthByAP[ap.APID] = ap.Health
	}
	minHealthy := 1.0
	for ap, h := range healthByAP {
		if ap != skewedAP && h < minHealthy {
			minHealthy = h
		}
	}
	if healthByAP[skewedAP] >= minHealthy {
		t.Fatalf("skewed AP %d health %.3f not below healthiest-sick %.3f (%+v)",
			skewedAP, healthByAP[skewedAP], minHealthy, healthByAP)
	}

	// Across the recent bursts the skewed AP's mean per-AP confidence
	// contribution must be the worst of the fleet.
	sum := map[int]float64{}
	n := map[int]int{}
	for _, rec := range snap.Recent {
		for _, aps := range rec.PerAP {
			sum[aps.APID] += aps.Score
			n[aps.APID]++
		}
	}
	if n[skewedAP] == 0 {
		t.Fatalf("no per-AP scores recorded for AP %d: %+v", skewedAP, snap.Recent)
	}
	skewedMean := sum[skewedAP] / float64(n[skewedAP])
	for ap := range sum {
		if ap == skewedAP {
			continue
		}
		if mean := sum[ap] / float64(n[ap]); skewedMean >= mean {
			t.Fatalf("skewed AP %d mean score %.3f not below AP %d's %.3f",
				skewedAP, skewedMean, ap, mean)
		}
	}

	// The HTML scoreboard renders from the same state.
	hr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(hr, httptest.NewRequest("GET", "/debug/quality?view=html", nil))
	if hr.Code != 200 || !strings.Contains(hr.Body.String(), "<html") {
		t.Fatalf("scoreboard HTML = %d, %d bytes", hr.Code, hr.Body.Len())
	}

	// --- /metrics: the quality series are exported. ---
	mr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(mr, httptest.NewRequest("GET", "/metrics", nil))
	body := mr.Body.String()
	for _, want := range []string{"spotfi_quality_score", "spotfi_quality_bursts_total", `spotfi_ap_health{ap="0"}`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}

	t.Logf("quality e2e: skewed AP health %.3f vs healthy min %.3f; skewed mean score %.3f",
		healthByAP[skewedAP], minHealthy, skewedMean)
}
