package spotfi

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spotfi/internal/apnode"
	"spotfi/internal/feed"
	"spotfi/internal/flight"
	"spotfi/internal/server"
	"spotfi/internal/sim"
	"spotfi/internal/testbed"
)

// startService builds a Service from cfg, logging through t, and opens
// intake on a loopback port. The service is drained when the test ends.
func startService(t *testing.T, cfg ServiceConfig) (*Service, string) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Drain(time.Second) })
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return svc, addr.String()
}

// subscribe opens a stream on svc's fix feed.
func subscribe(t *testing.T, svc *Service) *feed.Subscriber {
	t.Helper()
	sub, err := svc.Feed().Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// scrapeMetrics renders svc's registry as /metrics does and parses it.
func scrapeMetrics(t *testing.T, svc *Service) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, buf.String())
}

// checkNoLocalizeErrors fails the test if any burst svc assembled failed
// to localize.
func checkNoLocalizeErrors(t *testing.T, svc *Service) {
	t.Helper()
	if n := scrapeMetrics(t, svc)["spotfi_server_localize_errors_total"]; n != 0 {
		t.Errorf("%v bursts failed to localize", n)
	}
}

// waitFor polls cond every interval until it holds, failing the test
// after timeout.
func waitFor(t *testing.T, what string, timeout, interval time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(interval)
	}
}

// streamBursts runs one agent per AP of d, each streaming packets CSI
// reports for target tgt over TCP to addr, and waits for all of them.
func streamBursts(t *testing.T, d *testbed.Deployment, addr string, tgt, packets int, seedBase int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for apIdx := range d.APs {
		syn, err := sim.NewSynthesizer(d.Link(apIdx, tgt), d.Band, d.Array, d.Imp,
			rand.New(rand.NewSource(seedBase+int64(apIdx))))
		if err != nil {
			t.Fatalf("AP %d: %v", apIdx, err)
		}
		agent := &apnode.Agent{
			APID:       apIdx,
			ServerAddr: addr,
			Source: &apnode.SynthSource{
				Syn:       syn,
				TargetMAC: testbed.TargetMAC(tgt),
				Limit:     packets,
			},
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := agent.Run(ctx); err != nil {
				t.Errorf("agent %d: %v", id, err)
			}
		}(apIdx)
	}
	wg.Wait()
}

// TestServiceConfigValidate rejects each setting spotfi-server takes as a
// flag when it is out of range, naming the field.
func TestServiceConfigValidate(t *testing.T) {
	d := testbed.Office(42)
	valid := DefaultServiceConfig(deploymentAPs(d), d.Bounds)
	if err := valid.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []struct {
		name  string
		field string
		mut   func(*ServiceConfig)
	}{
		{"one AP", "APs", func(c *ServiceConfig) { c.APs = c.APs[:1] }},
		{"empty batch", "Collector.BatchSize", func(c *ServiceConfig) { c.Collector.BatchSize = 0 }},
		{"MinAPs below two", "Collector.MinAPs", func(c *ServiceConfig) { c.Collector.MinAPs = 1 }},
		{"negative admit target", "Queue.Target", func(c *ServiceConfig) { c.Queue.Target = -time.Millisecond }},
		{"negative admit interval", "Queue.Interval", func(c *ServiceConfig) { c.Queue.Interval = -time.Second }},
		{"deadline below target", "Queue.Deadline", func(c *ServiceConfig) {
			c.Queue.Target, c.Queue.Deadline = 200*time.Millisecond, 100*time.Millisecond
		}},
		{"negative breaker failures", "Breaker.Failures", func(c *ServiceConfig) { c.Breaker.Failures = -1 }},
		{"zero latency bound", "SLOLatencyBound", func(c *ServiceConfig) { c.SLOLatencyBound = 0 }},
		{"negative fast window", "SLO.FastWindow", func(c *ServiceConfig) { c.SLO.FastWindow = -time.Minute }},
		{"slow window below fast window", "SLO.SlowWindow", func(c *ServiceConfig) {
			c.SLO.FastWindow, c.SLO.SlowWindow = 10*time.Minute, 5*time.Minute
		}},
		{"negative SLO tick", "SLO.Tick", func(c *ServiceConfig) { c.SLO.Tick = -time.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), "ServiceConfig."+tc.field+" ") {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
			if _, err := NewService(cfg); err == nil {
				t.Fatal("NewService accepted what Validate rejects")
			}
		})
	}
}

// TestServiceDrain builds a backlog behind a single worker and drains it
// with a deadline too short to localize it: intake closes, every
// assembled burst is either localized or shed as drain, the fix feed
// closes, and the armed flight recorder writes its drain bundle.
func TestServiceDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("live-system run")
	}
	d := testbed.Office(42)
	const (
		targetIdx = 4
		batch     = 8
		bursts    = 20
	)
	cfg := DefaultServiceConfig(deploymentAPs(d), d.Bounds)
	cfg.Workers = 1
	cfg.Collector = server.CollectorConfig{BatchSize: batch, MinAPs: len(d.APs)}
	// Nothing may shed before the drain: a queue deep enough for every
	// burst, and a sojourn target and deadline far beyond the test.
	cfg.Queue.Capacity = 2 * bursts
	cfg.Queue.Target, cfg.Queue.Deadline, cfg.Queue.Interval = time.Minute, time.Minute, time.Minute
	cfg.Flight.Dir = t.TempDir()
	svc, addr := startService(t, cfg)
	sub := subscribe(t, svc)

	streamBursts(t, d, addr, targetIdx, batch*bursts, 300)
	waitFor(t, "every burst assembled", 20*time.Second, time.Millisecond, func() bool {
		return scrapeMetrics(t, svc)["spotfi_server_bursts_emitted_total"] == bursts
	})
	svc.Drain(time.Millisecond)

	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Error("intake still accepts connections after Drain")
	}
	fixes := 0
	for range sub.Fixes() {
		fixes++
	}
	if sub.Dropped() {
		t.Error("fix subscriber was dropped rather than closed by Drain")
	}

	m := scrapeMetrics(t, svc)
	shed := func(reason string) float64 { return m[`spotfi_admit_shed_total{reason="`+reason+`"}`] }
	drained := shed("drain")
	if drained == 0 {
		t.Error("drain shed nothing: the backlog was localized before the deadline")
	}
	for _, reason := range []string{"full", "stale", "codel"} {
		if n := shed(reason); n != 0 {
			t.Errorf("%v bursts shed as %s before the drain", n, reason)
		}
	}
	delivered := m["spotfi_admit_queue_sojourn_seconds_count"]
	if delivered+drained != bursts {
		t.Errorf("delivered %v + shed at drain %v != %d assembled bursts", delivered, drained, bursts)
	}
	outcomes := m["spotfi_feed_published_total"] + m["spotfi_server_localize_errors_total"] +
		m["spotfi_server_bursts_breaker_dropped_total"] + m["spotfi_server_localize_panics_total"]
	if outcomes != delivered {
		t.Errorf("%v delivered bursts but %v outcomes (fixes, errors, breaker drops, panics)", delivered, outcomes)
	}
	if float64(fixes) != m["spotfi_feed_published_total"] {
		t.Errorf("subscriber saw %d fixes, feed published %v", fixes, m["spotfi_feed_published_total"])
	}

	sawDrainBundle := false
	for _, b := range svc.Recorder().Bundles() {
		if strings.HasSuffix(b.Name, "-"+string(flight.TriggerDrain)) {
			sawDrainBundle = true
		}
	}
	if !sawDrainBundle {
		t.Errorf("no drain bundle among %+v", svc.Recorder().Bundles())
	}
	t.Logf("drain: %d fixes, %v shed at drain", fixes, drained)
}
