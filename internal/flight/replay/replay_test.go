package replay

import (
	"testing"

	"spotfi"
	"spotfi/internal/csi"
	"spotfi/internal/flight"
	"spotfi/internal/obs/trace"
	"spotfi/internal/server"
	"spotfi/internal/testbed"
)

// runProduction drives a compact production pipeline — collector with the
// flight tap installed, a three-rung ladder cycled per burst so every
// degradation mode appears in the bundle — records every fix, and dumps a
// bundle. It returns the loaded bundle and the fixes as production saw
// them, in emission order.
func runProduction(t *testing.T) (*flight.Bundle, []spotfi.Location) {
	t.Helper()
	d := testbed.Office(7)
	const (
		batch   = 8
		minAPs  = 3
		targets = 3
	)

	aps := make([]spotfi.AP, len(d.APs))
	specs := make([]flight.APSpec, len(d.APs))
	for i, ap := range d.APs {
		aps[i] = spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle}
		specs[i] = flight.APSpec{ID: ap.ID, X: ap.Pos.X, Y: ap.Pos.Y, NormalRad: ap.NormalAngle}
	}
	base := spotfi.DefaultConfig(d.Bounds)
	ladder, err := spotfi.BuildLadder(base, aps, 3)
	if err != nil {
		t.Fatal(err)
	}

	rec, err := flight.New(flight.Config{
		Dir: t.TempDir(),
		Server: flight.ServerConfig{
			Bounds: [4]float64{d.Bounds.MinX, d.Bounds.MinY, d.Bounds.MaxX, d.Bounds.MaxY},
			APs:    specs,
			Batch:  batch,
			MinAPs: minAPs,
			Modes:  3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	var produced []spotfi.Location
	burstN := 0
	coll, err := server.NewCollector(server.CollectorConfig{
		BatchSize:   batch,
		MinAPs:      minAPs,
		MaxBuffered: batch,
	}, func(mac string, bursts map[int][]*csi.Packet, tr *trace.Trace) {
		// Cycle the ladder so the bundle holds fixes from every rung and
		// replay proves it routes each fix to the right one.
		rung := ladder[burstN%len(ladder)]
		burstN++
		loc, _, _, lerr := rung.LocalizeBursts(bursts)
		if lerr != nil {
			t.Errorf("production localize %s: %v", mac, lerr)
			return
		}
		rec.RecordFix(mac, loc.Mode, loc.X, loc.Y, loc.Confidence, bursts)
		produced = append(produced, loc)
	})
	if err != nil {
		t.Fatal(err)
	}
	coll.SetTap(rec.TapPacket)

	// Each target is heard by all six APs: the first three full batches
	// complete one burst (minAPs=3), the remaining three complete another
	// — two fixes per target, across all rungs.
	for tgt := 0; tgt < targets; tgt++ {
		for ap := range d.APs {
			pkts, berr := d.Burst(ap, tgt, batch)
			if berr != nil {
				t.Fatal(berr)
			}
			for _, p := range pkts {
				if aerr := coll.Add(p); aerr != nil {
					t.Fatalf("add: %v", aerr)
				}
			}
		}
	}
	if len(produced) == 0 {
		t.Fatal("production pipeline emitted no fixes")
	}

	name, err := rec.DumpNow(flight.TriggerManual, "replay determinism test")
	if err != nil {
		t.Fatal(err)
	}
	b, err := flight.LoadBundle(rec.BundlePath(name))
	if err != nil {
		t.Fatal(err)
	}
	return b, produced
}

// TestReplayReproducesProductionBits is the tentpole guarantee: replaying
// a bundle re-derives every recorded fix bit-for-bit, and two replays of
// the same bundle agree with each other down to the span shapes.
func TestReplayReproducesProductionBits(t *testing.T) {
	b, produced := runProduction(t)
	if got, want := len(b.Manifest.Fixes), len(produced); got != want {
		t.Fatalf("bundle records %d fixes, production emitted %d", got, want)
	}
	for i, fr := range b.Manifest.Fixes {
		if !fr.Covered {
			t.Fatalf("fix %d not covered: capture ring evicted its frames in a test sized to retain them", i)
		}
	}

	r1, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, out := range r1.Fixes {
		if out.Skipped {
			t.Errorf("fix %d (%s, %s) skipped: %s", out.Index, out.MAC, out.Mode, out.Reason)
			continue
		}
		if !out.Match {
			t.Errorf("fix %d (%s, %s) diverged: %s", out.Index, out.MAC, out.Mode, out.Reason)
		}
	}
	if r1.Reproduced != len(produced) || r1.Diverged != 0 || r1.Skipped != 0 {
		t.Fatalf("run 1: reproduced=%d diverged=%d skipped=%d, want %d/0/0",
			r1.Reproduced, r1.Diverged, r1.Skipped, len(produced))
	}

	// Replay-vs-replay: identical bits and identical span shapes.
	if len(r2.Fixes) != len(r1.Fixes) {
		t.Fatalf("run 2 produced %d outcomes, run 1 %d", len(r2.Fixes), len(r1.Fixes))
	}
	for i := range r1.Fixes {
		a, b := r1.Fixes[i], r2.Fixes[i]
		if a.X != b.X || a.Y != b.Y || a.Confidence != b.Confidence || a.Mode != b.Mode {
			t.Errorf("fix %d differs between replay runs: (%v,%v,%v,%s) vs (%v,%v,%v,%s)",
				i, a.X, a.Y, a.Confidence, a.Mode, b.X, b.Y, b.Confidence, b.Mode)
		}
	}
	if len(r1.Traces) != len(r1.Fixes) || len(r2.Traces) != len(r2.Fixes) {
		t.Fatalf("replay traced %d+%d of %d fixes; every replayed fix must carry a full trace",
			len(r1.Traces), len(r2.Traces), len(r1.Fixes))
	}
	for i := range r1.Traces {
		if !ShapesEqual(Shapes(r1.Traces[i]), Shapes(r2.Traces[i])) {
			t.Errorf("fix %d span tree differs between replay runs", i)
		}
	}
}

// TestReplaySkipsUncoveredFixes: a fix whose frames were evicted before
// the dump must be reported as skipped, not diverged — eviction is a
// sizing fact, not a pipeline defect.
func TestReplaySkipsUncoveredFixes(t *testing.T) {
	b, _ := runProduction(t)
	// Forge eviction: blank out one fix's frame hashes so replay cannot
	// resolve them.
	b.Manifest.Fixes[0].Covered = false
	res, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 {
		t.Fatalf("skipped=%d, want 1", res.Skipped)
	}
	if res.Diverged != 0 {
		t.Fatalf("diverged=%d, want 0", res.Diverged)
	}
	if !res.Fixes[0].Skipped || res.Fixes[0].Reason == "" {
		t.Fatalf("fix 0 outcome %+v, want skipped with reason", res.Fixes[0])
	}
}
