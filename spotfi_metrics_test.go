package spotfi

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"spotfi/internal/server"
	"spotfi/internal/testbed"
)

// parseMetrics parses the Prometheus text format into a map keyed by the
// full series name including labels.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndToEnd runs the full deployed architecture with the
// observability layer wired in: AP agents stream CSI over TCP, the server
// assembles bursts, the pipeline localizes, and a /metrics scrape must
// show the ingest counters, stage latency histograms, and pending gauges
// all advancing coherently. Stage latencies come from the trace spans, so
// every burst is traced.
func TestMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live-system run")
	}
	d := testbed.Office(42)
	const targetIdx = 4
	const packets = 6

	cfg := DefaultServiceConfig(deploymentAPs(d), d.Bounds)
	cfg.Collector = server.CollectorConfig{BatchSize: packets, MinAPs: 6, MaxBuffered: 64}
	cfg.Trace.SampleEvery = 1
	svc, addr := startService(t, cfg)
	sub := subscribe(t, svc)

	// The debug endpoint exactly as spotfi-server serves it.
	debug := httptest.NewServer(svc.Handler())
	defer debug.Close()

	scrape := func() map[string]float64 {
		res, err := debug.Client().Get(debug.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return parseMetrics(t, string(body))
	}

	base := scrape()
	if base["spotfi_server_frames_total"] != 0 {
		t.Fatalf("frames counter nonzero before traffic: %v", base["spotfi_server_frames_total"])
	}

	streamBursts(t, d, addr, targetIdx, packets, 700)

	select {
	case <-sub.Fixes():
	case <-time.After(20 * time.Second):
		t.Fatal("no fix produced")
	}
	// The worker finishes the burst's trace, which feeds the span
	// histograms, just after it publishes the fix.
	var m map[string]float64
	waitFor(t, "the fix's trace to finish", 10*time.Second, 10*time.Millisecond, func() bool {
		m = scrape()
		return m["spotfi_traces_finished_total"] >= 1
	})

	wantPositive := []string{
		"spotfi_server_connects_total",
		"spotfi_server_frames_total",
		"spotfi_server_bursts_emitted_total",
		`spotfi_trace_span_seconds_count{span="sanitize"}`,
		`spotfi_trace_span_seconds_count{span="estimate"}`,
		`spotfi_trace_span_seconds_count{span="cluster"}`,
		`spotfi_trace_span_seconds_count{span="locate"}`,
		`spotfi_trace_span_seconds_sum{span="estimate"}`,
		"spotfi_packets_processed_total",
		"spotfi_bursts_processed_total",
	}
	for _, name := range wantPositive {
		v, ok := m[name]
		if !ok {
			t.Errorf("series %s missing from /metrics", name)
			continue
		}
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	// Per-packet stages ran once per (AP, packet) pair.
	if got := m[`spotfi_trace_span_seconds_count{span="estimate"}`]; got < float64(packets*6) {
		t.Errorf("estimate stage observed %v packets, want ≥ %d", got, packets*6)
	}
	// Every burst drained: pruned collector shows empty gauges.
	if m["spotfi_server_pending_targets"] != 0 || m["spotfi_server_pending_packets"] != 0 {
		t.Errorf("pending gauges = %v targets / %v packets, want 0/0",
			m["spotfi_server_pending_targets"], m["spotfi_server_pending_packets"])
	}
	if m["spotfi_server_decode_errors_total"] != 0 {
		t.Errorf("decode errors = %v, want 0", m["spotfi_server_decode_errors_total"])
	}
	// Histogram buckets are cumulative: the +Inf bucket equals the count.
	inf := m[`spotfi_trace_span_seconds_bucket{span="locate",le="+Inf"}`]
	if cnt := m[`spotfi_trace_span_seconds_count{span="locate"}`]; inf != cnt {
		t.Errorf("locate +Inf bucket %v != count %v", inf, cnt)
	}
	checkNoLocalizeErrors(t, svc)
}
