package spotfi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/sim"
	"spotfi/internal/testbed"
)

func officeLocalizer(t *testing.T, mutate func(*Config)) (*testbed.Deployment, *Localizer) {
	t.Helper()
	d := testbed.Office(11)
	cfg := DefaultConfig(d.Bounds)
	cfg.Workers = 2
	if mutate != nil {
		mutate(&cfg)
	}
	loc, err := New(cfg, deploymentAPs(d))
	if err != nil {
		t.Fatal(err)
	}
	return d, loc
}

func TestAPsAccessor(t *testing.T) {
	_, loc := officeLocalizer(t, nil)
	aps := loc.APs()
	if len(aps) != 6 {
		t.Fatalf("APs() returned %d", len(aps))
	}
	for i := 1; i < len(aps); i++ {
		if aps[i-1].ID >= aps[i].ID {
			t.Fatalf("APs() not sorted by ID: %d before %d", aps[i-1].ID, aps[i].ID)
		}
	}
}

func TestLocateRejectsUnknownAPReport(t *testing.T) {
	_, loc := officeLocalizer(t, nil)
	reports := []*APReport{
		{APID: 0, AoA: 0, Likelihood: 1, MeanRSSIdBm: -50},
		{APID: 99, AoA: 0, Likelihood: 1, MeanRSSIdBm: -50},
	}
	if _, err := loc.Locate(reports); err == nil {
		t.Fatal("unknown AP in report accepted")
	}
}

func TestLocalizeBurstsTooFewAPs(t *testing.T) {
	d, loc := officeLocalizer(t, nil)
	burst, err := d.Burst(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loc.LocalizeBursts(map[int][]*Packet{0: burst}); err == nil {
		t.Fatal("single-AP localization accepted")
	}
}

func TestLocalizeBurstsSkipsDeadAP(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d, loc := officeLocalizer(t, nil)
	bursts := make(map[int][]*Packet)
	for a := range d.APs {
		burst, err := d.Burst(a, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		bursts[a] = burst
	}
	// Corrupt one AP's entire burst: every CSI matrix becomes NaN, so
	// stage 1 fails for that AP but localization must still succeed.
	for _, p := range bursts[3] {
		p.CSI.Values[0][0] = complex(math.NaN(), 0)
	}
	p, reports, skipped, err := loc.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.APID == 3 {
			t.Fatal("dead AP produced a report")
		}
	}
	// The dead AP must be reported, not silently swallowed.
	if len(skipped) != 1 || skipped[0].APID != 3 || skipped[0].Err == nil {
		t.Fatalf("skipped = %v, want exactly AP 3 with its error", skipped)
	}
	if !d.Bounds.Contains(p.Point) {
		t.Fatalf("estimate %v outside bounds", p)
	}
}

func TestProcessBurstPartialFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d, loc := officeLocalizer(t, nil)
	burst, err := d.Burst(0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Half the packets corrupt: the burst must still be processed.
	for i := 0; i < 3; i++ {
		burst[i].CSI.Values[1][1] = complex(math.Inf(1), 0)
	}
	rep, err := loc.ProcessBurst(0, burst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != 6 {
		t.Fatalf("Packets = %d", rep.Packets)
	}
	ok := 0
	for _, pp := range rep.PerPacket {
		if len(pp) > 0 {
			ok++
		}
	}
	if ok != 3 {
		t.Fatalf("%d packets survived, want 3", ok)
	}
}

func TestProcessBurstAllFailures(t *testing.T) {
	d, loc := officeLocalizer(t, nil)
	burst, err := d.Burst(0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range burst {
		p.CSI.Values[0][0] = complex(math.NaN(), 0)
	}
	if _, err := loc.ProcessBurst(0, burst); err == nil {
		t.Fatal("all-corrupt burst accepted")
	}
}

func TestSelectionSchemesDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d := testbed.Office(11)
	burst, err := d.Burst(0, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	results := map[SelectionScheme]*APReport{}
	for _, scheme := range []SelectionScheme{SelectLikelihood, SelectMinToF, SelectMaxPower} {
		_, loc := officeLocalizer(t, func(c *Config) { c.Selection = scheme })
		rep, err := loc.ProcessBurst(0, burst)
		if err != nil {
			t.Fatal(err)
		}
		results[scheme] = rep
	}
	// All schemes choose from the same candidate set.
	if len(results[SelectLikelihood].Candidates) == 0 {
		t.Fatal("no candidates")
	}
	// MinToF must return the candidate with the smallest ToF among those
	// reported by the likelihood run (same clustering seed).
	minToF := math.Inf(1)
	for _, c := range results[SelectLikelihood].Candidates {
		minToF = math.Min(minToF, c.ToF)
	}
	chosen := results[SelectMinToF]
	var chosenToF float64
	found := false
	for _, c := range chosen.Candidates {
		if c.AoA == chosen.AoA {
			chosenToF = c.ToF
			found = true
		}
	}
	if !found {
		t.Fatal("selected AoA not among candidates")
	}
	if math.Abs(chosenToF-minToF) > 1e-15 {
		t.Fatalf("min-ToF selection chose ToF %v, min is %v", chosenToF, minToF)
	}
}

func TestSanitizeDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d, loc := officeLocalizer(t, func(c *Config) { c.Sanitize = false })
	burst, err := d.Burst(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loc.ProcessBurst(0, burst); err != nil {
		t.Fatalf("unsanitized pipeline failed: %v", err)
	}
}

func TestLocalizerDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	d, loc1 := officeLocalizer(t, nil)
	_, loc2 := officeLocalizer(t, nil)
	bursts := make(map[int][]*csi.Packet)
	for a := range d.APs {
		b, err := d.Burst(a, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		bursts[a] = b
	}
	p1, _, _, err := loc1.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _, err := loc2.LocalizeBursts(bursts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("same input, different estimates: %v vs %v", p1, p2)
	}
}

// TestFixIndependentOfPacketOrder holds each fix to its packet set on
// seeded office, high-NLoS and corridor scenes at 10 packets per AP.
// Shuffling the packets inside every AP burst must leave X, Y and
// Confidence bit-identical. So must swapping two packets that share a Seq
// but not their CSI: every burst gets an 11th packet carrying packet j's
// Seq, placed once after packet j and once before it.
func TestFixIndependentOfPacketOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	const packets, targets = 10, 8
	rng := rand.New(rand.NewSource(26))
	for _, d := range []*testbed.Deployment{testbed.Office(1), testbed.HighNLoS(1), testbed.Corridor(1)} {
		loc, err := New(DefaultConfig(d.Bounds), deploymentAPs(d))
		if err != nil {
			t.Fatal(err)
		}
		// %v prints the shortest decimal that parses back to the same
		// float64, so equal strings mean bit-identical finite fixes.
		fix := func(bursts map[int][]*csi.Packet) string {
			p, _, _, err := loc.LocalizeBursts(bursts)
			if err != nil {
				return err.Error()
			}
			return fmt.Sprintf("x=%v y=%v confidence=%v", p.X, p.Y, p.Confidence)
		}
		for tgt := 0; tgt < targets && tgt < len(d.Targets); tgt++ {
			j := tgt % packets
			inOrder := map[int][]*csi.Packet{}
			shuffled := map[int][]*csi.Packet{}
			tieAfter := map[int][]*csi.Packet{}
			tieBefore := map[int][]*csi.Packet{}
			for a := range d.APs {
				b, err := d.Burst(a, tgt, packets+1)
				if err != nil {
					continue
				}
				// base's capacity is capped, so Insert below copies it.
				base, extra := b[:packets:packets], b[packets]
				extra.Seq = base[j].Seq
				inOrder[a] = base
				mixed := slices.Clone(base)
				rng.Shuffle(packets, func(x, y int) { mixed[x], mixed[y] = mixed[y], mixed[x] })
				shuffled[a] = mixed
				tieAfter[a] = slices.Insert(base, j+1, extra)
				tieBefore[a] = slices.Insert(base, j, extra)
			}
			if want, got := fix(inOrder), fix(shuffled); got != want {
				t.Errorf("%s target %d: shuffled packets give %s, in order %s", d.Name, tgt, got, want)
			}
			if want, got := fix(tieAfter), fix(tieBefore); got != want {
				t.Errorf("%s target %d: packets sharing Seq %d give %s in one order, %s in the other",
					d.Name, tgt, j, got, want)
			}
		}
	}
}

func TestPipelineCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	// A localizer configured with the AP's true offsets must select a more
	// accurate direct-path AoA than an uncalibrated one on the same burst.
	d := testbed.Office(11)
	// Synthesize a burst with large known offsets so calibration has
	// something to correct.
	offsets := []float64{0, 0.5, -0.5}
	imp := d.Imp
	imp.AntennaPhaseOffsetsRad = offsets
	syn, err := simNewSynth(d.Link(0, 0), d, imp)
	if err != nil {
		t.Fatal(err)
	}
	burst := syn.Burst("cal-test", 8)

	truth := d.GroundTruthAoA(0, 0)
	run := func(withCal bool) float64 {
		cfg := DefaultConfig(d.Bounds)
		cfg.Workers = 2
		if withCal {
			cfg.Calibration = map[int]CalibrationOffsets{0: offsets}
		}
		loc, err := New(cfg, deploymentAPs(d))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := loc.ProcessBurst(0, burst)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(rep.AoA - truth)
	}
	raw := run(false)
	cal := run(true)
	t.Logf("selection error: uncalibrated %.1f°, calibrated %.1f°", raw*180/math.Pi, cal*180/math.Pi)
	if cal > raw+1e-9 {
		t.Fatalf("calibration hurt: %.3f vs %.3f rad", cal, raw)
	}
}

// simNewSynth builds a synthesizer for a testbed link with custom
// impairments.
func simNewSynth(link *sim.Link, d *testbed.Deployment, imp sim.Impairments) (*sim.Synthesizer, error) {
	return sim.NewSynthesizer(link, d.Band, d.Array, imp, rand.New(rand.NewSource(77)))
}
