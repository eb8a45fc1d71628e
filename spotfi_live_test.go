package spotfi

import (
	"testing"
	"time"

	"spotfi/internal/server"
	"spotfi/internal/testbed"
)

// TestLiveSystemEndToEnd exercises the full deployed architecture over
// real TCP: simulated AP agents stream CSI reports to the central server,
// the collector assembles bursts, and the SpotFi pipeline localizes.
func TestLiveSystemEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live-system run")
	}
	d := testbed.Office(42)
	const targetIdx = 4
	cfg := DefaultServiceConfig(deploymentAPs(d), d.Bounds)
	cfg.Collector = server.CollectorConfig{BatchSize: 8, MinAPs: 5, MaxBuffered: 64}
	svc, addr := startService(t, cfg)
	sub := subscribe(t, svc)

	streamBursts(t, d, addr, targetIdx, 8, 500)

	select {
	case fx := <-sub.Fixes():
		if fx.MAC != testbed.TargetMAC(targetIdx) {
			t.Fatalf("fix for unexpected MAC %s", fx.MAC)
		}
		p, truth := Point{X: fx.X, Y: fx.Y}, d.Targets[targetIdx]
		if e := p.Dist(truth); e > 3 {
			t.Fatalf("live fix %v is %v m from truth %v", p, e, truth)
		}
		t.Logf("live fix error: %.2f m", p.Dist(truth))
	case <-time.After(20 * time.Second):
		t.Fatal("no fix produced")
	}
	checkNoLocalizeErrors(t, svc)
}
