package flight

import (
	"io"
	"math"
	"os"
	"testing"
	"time"

	"spotfi/internal/csi"
	"spotfi/internal/obs"
)

// testPacket builds a small valid packet whose content is a function of
// (ap, seq), so content hashes differ packet to packet.
func testPacket(ap int, seq uint64) *csi.Packet {
	m := csi.NewMatrix(3, 4)
	for a := 0; a < 3; a++ {
		for s := 0; s < 4; s++ {
			m.Values[a][s] = complex(float64(ap+1)*float64(a+1), float64(seq)+float64(s))
		}
	}
	return &csi.Packet{
		APID:        ap,
		TargetMAC:   "02:00:00:00:00:01",
		Seq:         seq,
		TimestampNs: int64(seq) * 1000,
		RSSIdBm:     -40,
		CSI:         m,
	}
}

// fakeClock is a manually advanced Config.Now.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestRecorder(t *testing.T, mutate func(*Config)) *Recorder {
	t.Helper()
	cfg := Config{Dir: t.TempDir()}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestFrameRingWrapsAndSnapshotsInCaptureOrder(t *testing.T) {
	r := newTestRecorder(t, func(c *Config) { c.FramesPerAP = 4 })
	// 6 packets to AP 0 (ring of 4 → first two evicted), 3 to AP 1,
	// interleaved so the merged capture order crosses APs.
	var want []uint64 // PacketHash in expected snapshot order
	for seq := uint64(0); seq < 6; seq++ {
		p0 := testPacket(0, seq)
		r.TapPacket(p0)
		if seq >= 2 {
			want = append(want, PacketHash(p0))
		}
		if seq < 3 {
			p1 := testPacket(1, 100+seq)
			r.TapPacket(p1)
			want = append(want, PacketHash(p1)) // AP 1's ring never wraps
		}
	}
	s := r.takeSnapshot()
	if len(s.frames) != len(want) {
		t.Fatalf("snapshot has %d frames, want %d", len(s.frames), len(want))
	}
	// The snapshot is merged by capture sequence, so evicting AP 0's first
	// two packets leaves: 1@100, 2, 1@101, 3, 1@102, 4, 5 — i.e. the
	// surviving hashes in original arrival order.
	got := make(map[uint64]int, len(s.frames))
	for i, p := range s.frames {
		got[PacketHash(p)] = i
	}
	last := -1
	for _, h := range want {
		i, ok := got[h]
		if !ok {
			t.Fatalf("expected packet (hash %016x) missing from snapshot", h)
		}
		if i < last {
			t.Fatalf("snapshot order broken: hash %016x at %d after index %d", h, i, last)
		}
		last = i
	}
}

func TestJournalAndFixRingsKeepNewest(t *testing.T) {
	r := newTestRecorder(t, func(c *Config) { c.JournalCap = 4; c.FixCap = 2 })
	for i := 0; i < 6; i++ {
		r.Note(EventShed, -1, "", "n", float64(i))
	}
	bursts := map[int][]*csi.Packet{0: {testPacket(0, 1)}, 1: {testPacket(1, 2)}}
	for i := 0; i < 3; i++ {
		r.RecordFix("02:00:00:00:00:01", "full", float64(i), 0, 0.5, bursts)
	}
	s := r.takeSnapshot()
	// Each RecordFix also journals an EventFix, so the 4-slot journal holds
	// the tail of the interleaved stream ending in the last fix event.
	if len(s.journal) != 4 {
		t.Fatalf("journal kept %d events, want 4", len(s.journal))
	}
	if lastEv := s.journal[len(s.journal)-1]; lastEv.Kind != EventFix || lastEv.Value != 0.5 {
		t.Fatalf("journal tail = %+v, want the final fix event", lastEv)
	}
	if len(s.fixes) != 2 {
		t.Fatalf("fix ring kept %d records, want 2", len(s.fixes))
	}
	if s.fixes[0].X != 1 || s.fixes[1].X != 2 {
		t.Fatalf("fix ring kept X=%v,%v; want the newest records 1,2", s.fixes[0].X, s.fixes[1].X)
	}
	if len(s.fixes[0].APs) != 2 || len(s.fixes[0].APs[0].Seqs) != 1 {
		t.Fatalf("fix record AP composition %+v malformed", s.fixes[0].APs)
	}
}

func TestTriggerCooldownCoalesces(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	r := newTestRecorder(t, func(c *Config) {
		c.Cooldown = 10 * time.Second
		c.Registry = reg
		c.Now = clk.now
	})
	if !r.Trigger(TriggerBreakerOpen, "first") {
		t.Fatal("first trigger should be accepted")
	}
	if r.Trigger(TriggerBreakerOpen, "second") || r.Trigger(TriggerSLOBurn, "third") {
		t.Fatal("triggers within the cooldown must be suppressed")
	}
	// Let the async writer finish the first bundle, so the next accepted
	// trigger isn't coalesced as "writer busy".
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Bundles()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first bundle never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	clk.advance(11 * time.Second)
	if !r.Trigger(TriggerSLOBurn, "fourth") {
		t.Fatal("trigger past the cooldown should be accepted")
	}
	if got := r.suppressed[TriggerBreakerOpen].Value(); got != 1 {
		t.Fatalf("suppressed{breaker-open} = %d, want 1", got)
	}
	if got := r.suppressed[TriggerSLOBurn].Value(); got != 1 {
		t.Fatalf("suppressed{slo-burn} = %d, want 1", got)
	}
	r.Close() // drain the writer so both accepted dumps are on disk
	bundles := r.Bundles()
	if len(bundles) != 2 {
		t.Fatalf("got %d bundles, want 2 (one per accepted trigger): %+v", len(bundles), bundles)
	}
	if r.dumps[TriggerBreakerOpen].Value() != 1 || r.dumps[TriggerSLOBurn].Value() != 1 {
		t.Fatalf("dump counters breaker=%d slo=%d, want 1,1",
			r.dumps[TriggerBreakerOpen].Value(), r.dumps[TriggerSLOBurn].Value())
	}
}

func TestDumpNowPrunesPastMaxBundles(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	r := newTestRecorder(t, func(c *Config) {
		c.MaxBundles = 2
		c.Now = clk.now
	})
	var names []string
	for i := 0; i < 4; i++ {
		name, err := r.DumpNow(TriggerManual, "prune test")
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		clk.advance(time.Second) // distinct CreatedNs → distinct names
	}
	bundles := r.Bundles()
	if len(bundles) != 2 {
		t.Fatalf("index holds %d bundles, want 2", len(bundles))
	}
	if bundles[0].Name != names[3] || bundles[1].Name != names[2] {
		t.Fatalf("kept %q,%q; want the newest %q,%q", bundles[0].Name, bundles[1].Name, names[3], names[2])
	}
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("disk holds %d entries, want 2: %v", len(entries), entries)
	}
	for _, old := range names[:2] {
		if _, err := os.Stat(r.BundlePath(old)); !os.IsNotExist(err) {
			t.Fatalf("pruned bundle %q still on disk (err=%v)", old, err)
		}
	}
}

// TestBundleFramesAreSFT1 proves satellite 3: the frames file is readable
// by the stock SFT1 reader — which is exactly what spotfi-trace
// info/paths/spectrum/locate use — and round-trips every packet bit-for-bit.
func TestBundleFramesAreSFT1(t *testing.T) {
	r := newTestRecorder(t, nil)
	var taps []*csi.Packet
	for ap := 0; ap < 2; ap++ {
		for seq := uint64(0); seq < 5; seq++ {
			p := testPacket(ap, seq)
			r.TapPacket(p)
			taps = append(taps, p)
		}
	}
	name, err := r.DumpNow(TriggerManual, "round-trip")
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(r.BundlePath(name) + "/" + FramesFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := csi.NewTraceReader(f)
	var got []*csi.Packet
	for {
		p, rerr := tr.ReadPacket()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
		got = append(got, p)
	}
	if len(got) != len(taps) {
		t.Fatalf("read %d packets, want %d", len(got), len(taps))
	}
	// Tap order was AP-major; snapshot merges by capture sequence which
	// equals tap order here, so the round trip preserves both order and
	// content.
	for i := range got {
		if PacketHash(got[i]) != PacketHash(taps[i]) {
			t.Fatalf("packet %d changed across the SFT1 round trip", i)
		}
	}

	b, err := LoadBundle(r.BundlePath(name))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Packets) != len(taps) || b.Manifest.Frames != len(taps) {
		t.Fatalf("LoadBundle: %d packets, manifest says %d, want %d", len(b.Packets), b.Manifest.Frames, len(taps))
	}
}

// TestRetiredTriggerBundleLoads: a bundle dumped under a trigger kind the
// recorder no longer registers ("shed-floor", retired because nothing
// fired it) loads and lists with its kind intact, and dumping it touches
// no registered counter.
func TestRetiredTriggerBundleLoads(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRecorder(t, func(c *Config) { c.Registry = reg })
	r.TapPacket(testPacket(0, 1))
	name, err := r.DumpNow(TriggerKind("shed-floor"), "written before the kind was retired")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(r.BundlePath(name))
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != "shed-floor" || len(b.Packets) != 1 {
		t.Fatalf("loaded trigger %q with %d packets, want shed-floor with 1", b.Manifest.Trigger, len(b.Packets))
	}
	if list := ListBundles(r.cfg.Dir); len(list) != 1 || list[0].Trigger != "shed-floor" {
		t.Fatalf("ListBundles = %+v, want the one shed-floor bundle", list)
	}
	for _, k := range TriggerKinds() {
		if k == "shed-floor" {
			t.Fatal("shed-floor is still a registered trigger kind")
		}
		if v := r.dumps[k].Value(); v != 0 {
			t.Fatalf("dump counter %s = %d, want 0", k, v)
		}
	}
}

func TestFixCoverageReflectsEviction(t *testing.T) {
	r := newTestRecorder(t, func(c *Config) { c.FramesPerAP = 4 })
	early := []*csi.Packet{testPacket(0, 1), testPacket(0, 2)}
	for _, p := range early {
		r.TapPacket(p)
	}
	r.RecordFix("02:00:00:00:00:01", "full", 1, 2, 0.9, map[int][]*csi.Packet{0: early})
	// Flood AP 0's 4-slot ring so the early packets are evicted.
	late := make([]*csi.Packet, 0, 4)
	for seq := uint64(10); seq < 14; seq++ {
		p := testPacket(0, seq)
		r.TapPacket(p)
		late = append(late, p)
	}
	r.RecordFix("02:00:00:00:00:01", "full", 3, 4, 0.8, map[int][]*csi.Packet{0: late})
	name, err := r.DumpNow(TriggerManual, "coverage")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(r.BundlePath(name))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Manifest.Fixes) != 2 {
		t.Fatalf("bundle has %d fixes, want 2", len(b.Manifest.Fixes))
	}
	if b.Manifest.Fixes[0].Covered {
		t.Fatal("evicted fix marked covered")
	}
	if !b.Manifest.Fixes[1].Covered {
		t.Fatal("retained fix marked uncovered")
	}
}

// TestTapPacketAllocs is half of the zero-cost proof (the other half is
// the spotfi-lint noalloc contract on TapPacket): nil and disarmed taps
// never allocate, and the armed tap is allocation-free in steady state —
// the per-AP ring is allocated once, on the AP's first-ever packet.
func TestTapPacketAllocs(t *testing.T) {
	p := testPacket(0, 1)

	var nilRec *Recorder
	if n := testing.AllocsPerRun(200, func() { nilRec.TapPacket(p) }); n != 0 {
		t.Fatalf("nil recorder tap allocates %v/op", n)
	}

	r := newTestRecorder(t, nil)
	r.armed.Store(false)
	if n := testing.AllocsPerRun(200, func() { r.TapPacket(p) }); n != 0 {
		t.Fatalf("disarmed tap allocates %v/op", n)
	}

	r.armed.Store(true)
	r.TapPacket(p) // first packet allocates this AP's ring — once, ever
	if n := testing.AllocsPerRun(200, func() { r.TapPacket(p) }); n != 0 {
		t.Fatalf("armed steady-state tap allocates %v/op", n)
	}
}

// TestDumpWithHistogramSnapshot pins a regression: the +Inf upper bound
// of a histogram's last bucket made the manifest JSON-unencodable, so
// every dump on a server with real metrics failed. Non-finite floats in
// the snapshot must be clamped, not fatal.
func TestDumpWithHistogramSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("flight_test_seconds", "histogram with an implicit +Inf bucket",
		[]float64{0.1, 1}, nil)
	h.Observe(0.5)
	r := newTestRecorder(t, func(c *Config) {
		c.Registry = reg
		c.MetricsSnapshot = reg.Snapshot
	})
	r.TapPacket(testPacket(0, 1))

	name, err := r.DumpNow(TriggerManual, "histogram snapshot")
	if err != nil {
		t.Fatalf("dump with histogram metrics: %v", err)
	}
	b, err := LoadBundle(r.BundlePath(name))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range b.Manifest.Metrics {
		if s.Name != "flight_test_seconds" {
			continue
		}
		found = true
		for _, bk := range s.Buckets {
			if math.IsInf(bk.UpperBound, 0) || math.IsNaN(bk.UpperBound) {
				t.Fatalf("non-finite bucket bound survived the dump: %v", bk.UpperBound)
			}
		}
	}
	if !found {
		t.Fatal("histogram missing from the bundle's metrics snapshot")
	}
}
