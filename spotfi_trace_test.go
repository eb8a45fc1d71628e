package spotfi

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spotfi/internal/obs/trace"
	"spotfi/internal/server"
	"spotfi/internal/testbed"
)

// tracePage mirrors the /debug/traces JSON shape.
type tracePage struct {
	Recent []traceJSON `json:"recent"`
	Slow   []traceJSON `json:"slow"`
}

type traceJSON struct {
	ID    string     `json:"id"`
	DurNS int64      `json:"dur_ns"`
	Spans []spanJSON `json:"spans"`
}

type spanJSON struct {
	Name   string         `json:"name"`
	Parent int            `json:"parent"`
	DurNS  int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs"`
}

// TestTracedLiveSystemEndToEnd drives real bursts through a live TCP
// server with tracing on for every burst, then scrapes /debug/traces and
// asserts the span tree covers the full pipeline with plausible DSP
// attributes: per-cluster likelihoods, the chosen direct-path AoA/ToF, and
// solver iterations.
func TestTracedLiveSystemEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live-system run")
	}
	d := testbed.Office(42)
	const targetIdx = 4
	cfg := DefaultServiceConfig(deploymentAPs(d), d.Bounds)
	cfg.Collector = server.CollectorConfig{BatchSize: 8, MinAPs: 5, MaxBuffered: 64}
	cfg.Trace.SampleEvery = 1 // trace every burst
	svc, addr := startService(t, cfg)
	sub := subscribe(t, svc)

	streamBursts(t, d, addr, targetIdx, 8, 700)

	select {
	case <-sub.Fixes():
	case <-time.After(20 * time.Second):
		t.Fatal("no fix produced")
	}

	// Scrape the debug endpoint exactly as an operator would. The worker
	// finishes the trace just after publishing the fix, so poll.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var full *traceJSON
	deadline := time.Now().Add(10 * time.Second)
	for full == nil {
		if time.Now().After(deadline) {
			t.Fatal("no complete pipeline trace appeared at /debug/traces")
		}
		res, err := ts.Client().Get(ts.URL + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		var page tracePage
		err = json.NewDecoder(res.Body).Decode(&page)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range page.Recent {
			if coversPipeline(&page.Recent[i]) {
				full = &page.Recent[i]
				break
			}
		}
		if full == nil {
			time.Sleep(50 * time.Millisecond)
		}
	}

	if full.ID == "" || full.DurNS <= 0 {
		t.Fatalf("trace missing id or duration: %+v", full)
	}
	if full.Spans[0].Name != trace.StageBurst || full.Spans[0].Parent != -1 {
		t.Fatalf("first span is %q (parent %d), want root %q",
			full.Spans[0].Name, full.Spans[0].Parent, trace.StageBurst)
	}
	// The root carries the degradation mode the fix was computed in.
	if mode, ok := full.Spans[0].Attrs["mode"].(string); !ok || mode != "full" {
		t.Fatalf("root span mode attr = %v, want \"full\": %v", full.Spans[0].Attrs["mode"], full.Spans[0].Attrs)
	}
	byName := map[string][]spanJSON{}
	for _, sp := range full.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		if sp.Name != trace.StageBurst && (sp.Parent < 0 || sp.Parent >= len(full.Spans)) {
			t.Fatalf("span %q has dangling parent %d", sp.Name, sp.Parent)
		}
	}
	for _, stage := range trace.PipelineStages() {
		spans := byName[stage]
		if len(spans) == 0 {
			t.Fatalf("stage %q missing from trace %s", stage, full.ID)
		}
		nonzero := false
		for _, sp := range spans {
			if sp.DurNS > 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Fatalf("stage %q has no span with nonzero duration", stage)
		}
	}

	// Direct-path selection carries Eq. 8 likelihoods and the chosen AoA/ToF.
	sel := byName[trace.StageSelect][0]
	ls, ok := sel.Attrs["likelihoods"].([]any)
	if !ok || len(ls) == 0 {
		t.Fatalf("select span lacks per-cluster likelihoods: %v", sel.Attrs)
	}
	for _, key := range []string{"aoa_deg", "tof_ns", "likelihood"} {
		if _, ok := sel.Attrs[key].(float64); !ok {
			t.Fatalf("select span lacks %s: %v", key, sel.Attrs)
		}
	}

	// The solver span records its iteration count and the solution.
	lsp := byName[trace.StageLocate][0]
	if iters, ok := lsp.Attrs["iters"].(float64); !ok || iters <= 0 {
		t.Fatalf("locate span lacks positive iters: %v", lsp.Attrs)
	}
	for _, key := range []string{"x", "y", "aps"} {
		if _, ok := lsp.Attrs[key].(float64); !ok {
			t.Fatalf("locate span lacks %s: %v", key, lsp.Attrs)
		}
	}

	// Eigenstructure diagnostics from the MUSIC stage.
	esp := byName[trace.StageEstimate][0]
	for _, key := range []string{"eigen_sweeps", "signal_dim", "eigen_gap_db", "peaks"} {
		if _, ok := esp.Attrs[key].(float64); !ok {
			t.Fatalf("estimate span lacks %s: %v", key, esp.Attrs)
		}
	}
	// The serving-graph ledger counts MUSIC packets by the estimator label
	// and sums cells_swept, the denominators the sweep evaluated, so both
	// must be present on a MUSIC packet.
	if est, _ := esp.Attrs["estimator"].(string); est != "music" {
		t.Fatalf("estimate span estimator = %q, want \"music\": %v", est, esp.Attrs)
	}
	attrInt := func(key string) int {
		v, _ := esp.Attrs[key].(float64)
		return int(v)
	}
	theta, tau, cells := attrInt("grid_theta"), attrInt("grid_tau"), attrInt("cells_swept")
	if theta <= 0 || tau <= 0 || cells <= 0 {
		t.Fatalf("estimate span grid_theta = %d, grid_tau = %d, cells_swept = %d, want all positive", theta, tau, cells)
	}

	// The per-stage latency histograms on /metrics saw the same spans.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	svc.Handler().ServeHTTP(rec, req)
	if body := rec.Body.String(); !strings.Contains(body, `spotfi_trace_span_seconds_count{span="locate"}`) {
		t.Fatalf("trace histograms missing from /metrics:\n%.2000s", body)
	}
	checkNoLocalizeErrors(t, svc)
}

func coversPipeline(tr *traceJSON) bool {
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = true
	}
	for _, stage := range trace.PipelineStages() {
		if !seen[stage] {
			return false
		}
	}
	return true
}

// TestSampledOutBurstPathAllocs proves the acceptance bar for tracing
// overhead: with a live tracer whose sampler rejects the burst, the exact
// sequence of trace calls the server and pipeline make allocates nothing.
func TestSampledOutBurstPathAllocs(t *testing.T) {
	tracer := trace.New(trace.Config{SampleEvery: 1 << 30})
	// The first burst after start is sampled in; consume it so every Start
	// below takes the sampled-out path, as ~all bursts do in production.
	tracer.Start(trace.StageBurst).Finish()

	t0 := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		// Collector side.
		tr := tracer.StartAt(trace.StageBurst, t0)
		asm := tr.Root().StartSpanAt(trace.StageAssemble, t0)
		asm.SetStr("mac", "aa:bb")
		asm.SetInt("aps", 6)
		asm.SetInt("packets", 48)
		asm.End()
		// Pipeline side, per AP.
		apSpan := tr.Root().StartSpan(trace.StageAP)
		apSpan.SetInt("ap", 3)
		ssp := apSpan.StartSpan(trace.StageSanitize)
		ssp.SetFloat("sto_ns", 12.5)
		ssp.End()
		esp := apSpan.StartSpan(trace.StageEstimate)
		esp.SetInt("eigen_sweeps", 7)
		esp.End()
		csp := apSpan.StartSpan(trace.StageCluster)
		csp.SetInt("clusters", 4)
		csp.End()
		sel := apSpan.StartSpan(trace.StageSelect)
		if sel.Enabled() {
			// Composite attrs are built only when the span is live, so the
			// sampled-out path must never reach this.
			t.Fatal("sampled-out span reported Enabled")
		}
		sel.End()
		apSpan.End()
		lsp := tr.Root().StartSpan(trace.StageLocate)
		lsp.SetInt("iters", 40)
		lsp.End()
		tr.Finish()
	})
	if allocs != 0 {
		t.Fatalf("sampled-out burst path allocated %v allocs/op, want 0", allocs)
	}
}

// TestSampledOutTracingIsBehaviorNeutral runs the same burst with tracing
// sampled out and with no tracer, and requires identical results: sampling
// must never perturb the DSP.
func TestSampledOutTracingIsBehaviorNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	d := testbed.Office(7)
	loc, err := New(DefaultConfig(d.Bounds), deploymentAPs(d))
	if err != nil {
		t.Fatal(err)
	}
	bursts := make(map[int][]*Packet)
	for a := range d.APs {
		b, err := d.Burst(a, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		bursts[a] = b
	}

	tracer := trace.New(trace.Config{SampleEvery: 1 << 30})
	tracer.Start(trace.StageBurst).Finish() // consume the sampled-in slot
	tr := tracer.StartAt(trace.StageBurst, time.Now())
	if tr != nil {
		t.Fatal("burst unexpectedly sampled in")
	}
	p1, _, _, err := loc.LocalizeBurstsTraced(bursts, tr)
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _, err := loc.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("sampled-out traced run %v differs from untraced run %v", p1, p2)
	}
}
