package spotfi

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/obs"
	"spotfi/internal/testbed"
)

// scrapeRegistry renders r in Prometheus text format and parses it back.
func scrapeRegistry(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, b.String())
}

// officeBursts collects one burst per AP from an Office deployment.
func officeBursts(t *testing.T, d *testbed.Deployment, target, packets int) map[int][]*csi.Packet {
	t.Helper()
	bursts := make(map[int][]*csi.Packet)
	for a := range d.APs {
		b, err := d.Burst(a, target, packets)
		if err != nil {
			t.Fatal(err)
		}
		bursts[a] = b
	}
	return bursts
}

// TestFastPathCountersPartition checks that with the ESPRIT fast path
// enabled, every burst either lands in the accepted counter or the
// fallback counter — never both, never neither — that every packet is
// counted exactly once as processed or failed, even when a burst is
// estimated twice because it fell back to MUSIC, and that the pipeline
// still produces a usable location.
func TestFastPathCountersPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d := testbed.Office(11)
	for _, tc := range []struct {
		name string
		fp   FastPathConfig
	}{
		{"default-gates", FastPathConfig{Enabled: true}},
		{"forced-fallback", FastPathConfig{Enabled: true, MinEigenGapDB: 1e9, MinMargin: 1e9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := DefaultConfig(d.Bounds)
			cfg.Workers = 2
			cfg.FastPath = tc.fp
			cfg.Metrics = NewPipelineMetrics(reg)
			loc, err := New(cfg, deploymentAPs(d))
			if err != nil {
				t.Fatal(err)
			}
			bursts := officeBursts(t, d, 0, 6)
			// One packet per burst fails Algorithm 1, so a fallback that
			// re-counted prep failures would show up in PacketFailures.
			pktsIn := 0
			for _, b := range bursts {
				b[0].CSI.Values[1][1] = complex(math.Inf(1), 0)
				pktsIn += len(b)
			}
			p, reports, skipped, err := loc.LocalizeBursts(bursts)
			if err != nil {
				t.Fatal(err)
			}
			if len(skipped) != 0 {
				t.Fatalf("skipped APs with fast path on: %v", skipped)
			}
			if len(reports) != len(bursts) {
				t.Fatalf("got %d reports for %d bursts", len(reports), len(bursts))
			}
			if !d.Bounds.Contains(p.Point) {
				t.Fatalf("estimate %v outside bounds", p.Point)
			}
			acc := cfg.Metrics.FastPathAccepted.Value()
			fb := cfg.Metrics.FastPathFallbacks.Value()
			if acc+fb != uint64(len(bursts)) {
				t.Fatalf("accepted(%d)+fallback(%d) != bursts(%d)", acc, fb, len(bursts))
			}
			if got := cfg.Metrics.BurstsProcessed.Value(); got != uint64(len(bursts)) {
				t.Fatalf("BurstsProcessed = %d, want %d", got, len(bursts))
			}
			proc := cfg.Metrics.PacketsProcessed.Value()
			fail := cfg.Metrics.PacketFailures.Value()
			if proc+fail != uint64(pktsIn) {
				t.Fatalf("processed(%d)+failures(%d) != packets in (%d); fallbacks %d", proc, fail, pktsIn, fb)
			}
			if fail != uint64(len(bursts)) {
				t.Fatalf("PacketFailures = %d, want one per burst (%d)", fail, len(bursts))
			}
		})
	}
}

// TestFastPathImpossibleGatesMatchesDisabled forces every burst through
// the fallback (gates no real burst can clear) and checks the reports are
// bitwise identical to a fast-path-disabled run: the fallback re-estimates
// from the same prepped CSI, so trying ESPRIT first must not perturb the
// MUSIC result.
func TestFastPathImpossibleGatesMatchesDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d := testbed.Office(11)
	bursts := officeBursts(t, d, 2, 6)

	mkLoc := func(fp FastPathConfig, reg *obs.Registry) (*Localizer, *PipelineMetrics) {
		cfg := DefaultConfig(d.Bounds)
		cfg.Workers = 2
		cfg.FastPath = fp
		var m *PipelineMetrics
		if reg != nil {
			m = NewPipelineMetrics(reg)
			cfg.Metrics = m
		}
		loc, err := New(cfg, deploymentAPs(d))
		if err != nil {
			t.Fatal(err)
		}
		return loc, m
	}

	reg := obs.NewRegistry()
	forced, m := mkLoc(FastPathConfig{Enabled: true, MinEigenGapDB: 1e9, MinMargin: 1e9}, reg)
	plain, _ := mkLoc(FastPathConfig{}, nil)

	pForced, rForced, _, err := forced.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	pPlain, rPlain, _, err := plain.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	if m.FastPathAccepted.Value() != 0 {
		t.Fatalf("impossible gates accepted %d bursts", m.FastPathAccepted.Value())
	}
	if got := m.FastPathFallbacks.Value(); got != uint64(len(bursts)) {
		t.Fatalf("fallbacks = %d, want %d", got, len(bursts))
	}
	if pForced != pPlain {
		t.Fatalf("forced-fallback location %v differs from disabled %v", pForced, pPlain)
	}
	if !reflect.DeepEqual(rForced, rPlain) {
		t.Fatal("forced-fallback reports differ from fast-path-disabled reports")
	}
}

// TestFastPathDeterministic runs the fast-path pipeline twice over the
// same bursts; the gate decisions and results must be bitwise stable.
func TestFastPathDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d := testbed.Office(11)
	bursts := officeBursts(t, d, 1, 6)
	run := func() (Location, []*APReport) {
		cfg := DefaultConfig(d.Bounds)
		cfg.Workers = 2
		cfg.FastPath = FastPathConfig{Enabled: true}
		loc, err := New(cfg, deploymentAPs(d))
		if err != nil {
			t.Fatal(err)
		}
		p, reports, _, err := loc.LocalizeBursts(bursts)
		if err != nil {
			t.Fatal(err)
		}
		return p, reports
	}
	p1, r1 := run()
	p2, r2 := run()
	if p1 != p2 {
		t.Fatalf("same input, different estimates: %v vs %v", p1, p2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("fast-path reports not deterministic")
	}
}

// TestSteeringCacheMetricsRegister exercises RegisterSteeringCacheMetrics:
// the three gauges must appear in a scrape and reflect a cache that has at
// least served this process's estimators.
func TestSteeringCacheMetricsRegister(t *testing.T) {
	d := testbed.Office(11)
	cfg := DefaultConfig(d.Bounds)
	if _, err := New(cfg, deploymentAPs(d)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterSteeringCacheMetrics(reg)
	got := scrapeRegistry(t, reg)
	entries, ok := got["spotfi_steering_cache_entries"]
	if !ok {
		t.Fatal("spotfi_steering_cache_entries not exported")
	}
	if entries < 1 {
		t.Fatalf("cache entries = %v, want >= 1 after building a localizer", entries)
	}
	if _, ok := got["spotfi_steering_cache_hits"]; !ok {
		t.Fatal("spotfi_steering_cache_hits not exported")
	}
	if _, ok := got["spotfi_steering_cache_misses"]; !ok {
		t.Fatal("spotfi_steering_cache_misses not exported")
	}
}
