// Package flight is the server's black-box flight recorder: a bounded,
// allocation-disciplined capture of recent raw CSI frames per AP plus a
// decision journal (sheds, mode transitions, breaker flips, quarantines,
// per-fix confidence). It records continuously for free and, on an anomaly
// trigger — breaker open, SLO burn start, panic quarantine,
// low-confidence fix, manual request, graceful drain — freezes
// everything into an atomic, schema-versioned bundle on disk. Bundles are
// self-contained: frames in SFT1 format (so the spotfi-trace tools work on
// them unchanged), the journal, fix records with per-packet content
// hashes, a metrics snapshot, recent/slow traces, a goroutine dump, and
// the effective server configuration — enough for `spotfi-trace replay`
// to re-run every recorded fix through the real pipeline bit-for-bit
// (see internal/flight/replay).
//
// The ingest tap (TapPacket) carries the //spotfi:noalloc contract: a
// disarmed (or nil) recorder costs a nil check and an atomic load on the
// per-packet hot path, nothing more. The armed steady state is also
// allocation-free (pointer writes into preallocated rings), proven by an
// AllocsPerRun test. Dumping is asynchronous — triggers hand the single
// bundle-writer goroutine a request over a non-blocking channel, so a
// dump in progress never blocks ingest.
package flight

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotfi/internal/csi"
	"spotfi/internal/obs"
	"spotfi/internal/obs/trace"
)

// TriggerKind names why a bundle was (or would have been) dumped. The set
// is closed so the per-trigger counters can be registered up front.
type TriggerKind string

// Trigger taxonomy (DESIGN.md §17). Automatic triggers observe the
// overload-resilience layer; TriggerManual and TriggerDrain are operator-
// and lifecycle-driven. Shedding that exhausts its budget freezes a
// bundle through TriggerSLOBurn, as the admit_shed objective burns.
// Bundles written under a retired kind ("shed-floor") still load: a
// bundle's trigger is a plain string.
const (
	// TriggerBreakerOpen: an AP's circuit breaker transitioned to open.
	TriggerBreakerOpen TriggerKind = "breaker-open"
	// TriggerSLOBurn: an SLO objective started burning on both windows.
	TriggerSLOBurn TriggerKind = "slo-burn"
	// TriggerPanic: a burst handler panicked and was quarantined.
	TriggerPanic TriggerKind = "panic"
	// TriggerLowConfidence: a fix scored below the confidence floor.
	TriggerLowConfidence TriggerKind = "low-confidence"
	// TriggerManual: POST /debug/flight/dump.
	TriggerManual TriggerKind = "manual"
	// TriggerDrain: graceful shutdown flushes whatever is buffered.
	TriggerDrain TriggerKind = "drain"
)

// TriggerKinds returns every trigger kind, in taxonomy order.
func TriggerKinds() []TriggerKind {
	return []TriggerKind{
		TriggerBreakerOpen, TriggerSLOBurn, TriggerPanic,
		TriggerLowConfidence, TriggerManual, TriggerDrain,
	}
}

// Journal event kinds. Free-form strings are accepted; these constants
// cover the events the server wires up.
const (
	EventShed       = "shed"
	EventMode       = "mode"
	EventBreaker    = "breaker"
	EventQuarantine = "quarantine"
	EventDrift      = "drift"
	EventSLO        = "slo"
	EventTrigger    = "trigger"
	EventFix        = "fix"
)

// Event is one decision-journal entry.
type Event struct {
	// AtNs is the wall-clock time of the event (unix nanoseconds).
	AtNs int64 `json:"at_ns"`
	// CaptureSeq is the recorder's frame-capture sequence at the time, so
	// journal entries interleave with the frame stream.
	CaptureSeq uint64 `json:"capture_seq"`
	// Kind is one of the Event* constants (or a caller-defined string).
	Kind string `json:"kind"`
	// AP is the AP the event concerns, -1 when not AP-scoped.
	AP int `json:"ap"`
	// MAC is the target the event concerns, empty when not target-scoped.
	MAC string `json:"mac,omitempty"`
	// Detail is a short human-readable elaboration.
	Detail string `json:"detail,omitempty"`
	// Value carries the event's scalar, when it has one (a shed rate, a
	// fix confidence, a mode index).
	Value float64 `json:"value,omitempty"`
}

// FixAP pins one AP's contribution to a recorded fix: the exact packets,
// in the exact per-AP order the pipeline saw them.
type FixAP struct {
	AP int `json:"ap"`
	// Seqs are the wire sequence numbers, in burst order.
	Seqs []uint64 `json:"seqs"`
	// Hashes are PacketHash values parallel to Seqs — sequence numbers
	// alone are not unique across traffic regimes, content hashes are.
	Hashes []uint64 `json:"hashes"`
}

// FixRecord is one published fix plus everything replay needs to
// reproduce it bit-for-bit: the post-breaker-filter burst composition and
// the float bit patterns of the result.
type FixRecord struct {
	AtNs       int64   `json:"at_ns"`
	MAC        string  `json:"mac"`
	Mode       string  `json:"mode"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Confidence float64 `json:"confidence"`
	// XBits/YBits/ConfBits are math.Float64bits of the fields above —
	// the replay gate compares bit patterns, not rounded decimals.
	XBits    uint64  `json:"x_bits"`
	YBits    uint64  `json:"y_bits"`
	ConfBits uint64  `json:"conf_bits"`
	APs      []FixAP `json:"aps"`
	// Covered is set at dump time: every referenced packet was still in
	// the frame rings, so the bundle can replay this fix. Fixes whose
	// packets were evicted before the dump are recorded but not
	// replayable.
	Covered bool `json:"covered"`
}

// APSpec is one AP's deployment geometry. NormalRad is the array normal
// in radians — the exact float64 the server localized with, not a
// degree round-trip, because replay must rebuild bit-identical geometry
// (encoding/json emits the shortest decimal that parses back to the same
// float64, so the value survives the manifest unchanged).
type APSpec struct {
	ID        int     `json:"id"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	NormalRad float64 `json:"normal_rad"`
}

// ServerConfig is the effective pipeline configuration a bundle was
// captured under — everything replay needs to rebuild the same localizer
// ladder and collector.
type ServerConfig struct {
	// Bounds is minX, minY, maxX, maxY (meters).
	Bounds [4]float64 `json:"bounds"`
	APs    []APSpec   `json:"aps"`
	Batch  int        `json:"batch"`
	MinAPs int        `json:"min_aps"`
	// Modes is the degradation-ladder depth (1–3).
	Modes int `json:"modes"`
}

// Config parameterizes a Recorder. Zero values take the defaults noted on
// each field.
type Config struct {
	// Dir is where bundles are written (required).
	Dir string
	// FramesPerAP bounds the per-AP frame ring (default 256).
	FramesPerAP int
	// JournalCap bounds the decision journal ring (default 2048).
	JournalCap int
	// FixCap bounds the fix-record ring (default 512).
	FixCap int
	// Cooldown coalesces automatic triggers: after a dump, further
	// triggers within the cooldown are suppressed and counted instead of
	// spamming bundles (default 30s).
	Cooldown time.Duration
	// MaxBundles bounds on-disk bundles; the oldest are pruned (default 8).
	MaxBundles int
	// Server is the effective pipeline configuration, embedded in every
	// bundle so replay can rebuild the same ladder.
	Server ServerConfig
	// Flags is the server's effective flag set, embedded verbatim.
	Flags map[string]string
	// Registry, when non-nil, receives the spotfi_flight_* counters.
	Registry *obs.Registry
	// MetricsSnapshot, when non-nil, supplies the /metrics snapshot
	// embedded in bundles (typically obs.Registry.Snapshot).
	MetricsSnapshot func() []obs.Sample
	// Traces, when non-nil, supplies the recent and slow trace rings
	// embedded in bundles.
	Traces func() (recent, slow []trace.TraceData)
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
	// Logger, when non-nil, receives a record per dump.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.FramesPerAP <= 0 {
		c.FramesPerAP = 256
	}
	if c.JournalCap <= 0 {
		c.JournalCap = 2048
	}
	if c.FixCap <= 0 {
		c.FixCap = 512
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.MaxBundles <= 0 {
		c.MaxBundles = 8
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// apRing is one AP's bounded frame ring: preallocated slots holding
// pointers to immutable post-decode packets (the pipeline clones CSI
// before mutating, so retaining the pointer is safe and free).
type apRing struct {
	pkts []*csi.Packet
	seqs []uint64 // recorder capture sequence per slot
	next int
	n    int
}

// dumpReq is one queued bundle-dump request.
type dumpReq struct {
	kind   TriggerKind
	detail string
}

// Recorder is the flight recorder. All methods are safe on a nil receiver
// and do nothing, so an unarmed server threads a nil *Recorder freely.
type Recorder struct {
	cfg   Config
	armed atomic.Bool
	// lastDumpNs gates trigger coalescing with a CAS, so the hot trigger
	// path never takes a lock.
	lastDumpNs atomic.Int64

	mu      sync.Mutex
	rings   map[int]*apRing
	capSeq  uint64
	journal []Event // ring of JournalCap slots
	jNext   int
	jCount  int
	fixes   []FixRecord // ring of FixCap slots
	fNext   int
	fCount  int

	dumpCh    chan dumpReq
	closeOnce sync.Once
	wg        sync.WaitGroup

	bundleMu sync.Mutex
	bundles  []BundleInfo

	dumps      map[TriggerKind]*obs.Counter
	suppressed map[TriggerKind]*obs.Counter
}

// New builds a Recorder, arms it, and starts the single bundle-writer
// goroutine (joined by Close). Metric families, when cfg.Registry is set:
//
//	spotfi_flight_dumps_total{trigger=...}
//	spotfi_flight_suppressed_total{trigger=...}
func New(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: Dir is required")
	}
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:     cfg,
		rings:   make(map[int]*apRing),
		journal: make([]Event, cfg.JournalCap),
		fixes:   make([]FixRecord, cfg.FixCap),
		dumpCh:  make(chan dumpReq, 1),
	}
	// Counters are registered here, once, per the obsreg rule: hot paths
	// only touch the returned handles (nil handles no-op without a
	// registry).
	r.dumps = make(map[TriggerKind]*obs.Counter, len(TriggerKinds()))
	r.suppressed = make(map[TriggerKind]*obs.Counter, len(TriggerKinds()))
	for _, k := range TriggerKinds() {
		if reg := cfg.Registry; reg != nil {
			r.dumps[k] = reg.Counter("spotfi_flight_dumps_total",
				"Flight-recorder bundles dumped, by trigger.",
				obs.Labels{"trigger": string(k)})
			r.suppressed[k] = reg.Counter("spotfi_flight_suppressed_total",
				"Flight-recorder triggers coalesced away (cooldown or dump in progress), by trigger.",
				obs.Labels{"trigger": string(k)})
		}
	}
	if err := ensureDir(cfg.Dir); err != nil {
		return nil, err
	}
	r.bundles = ListBundles(cfg.Dir)
	r.wg.Add(1)
	//lint:allow gospawn single bundle-writer goroutine per recorder, WaitGroup-joined by Close
	go func() {
		defer r.wg.Done()
		for req := range r.dumpCh {
			if _, err := r.dump(req.kind, req.detail); err != nil && r.cfg.Logger != nil {
				r.cfg.Logger.Warn("flight bundle dump failed", "trigger", string(req.kind), "err", err)
			}
		}
	}()
	r.armed.Store(true)
	return r, nil
}

// Armed reports whether the recorder is capturing. False on nil.
func (r *Recorder) Armed() bool {
	return r != nil && r.armed.Load()
}

func (r *Recorder) now() time.Time { return r.cfg.Now() }

// TapPacket is the ingest-path capture hook, installed as the collector's
// packet tap: it runs under the collector lock for every buffered packet,
// in exactly burst-assembly order. Disarmed (or on a nil recorder) it is
// a nil check plus an atomic load — the //spotfi:noalloc contract below
// is what proves recording costs nothing when off.
//
//spotfi:noalloc
func (r *Recorder) TapPacket(p *csi.Packet) {
	if r == nil || !r.armed.Load() {
		return
	}
	r.capture(p) //lint:allow noalloc armed-path capture locks the rings; its steady state is alloc-free pointer writes, proven by TestTapPacketAllocs
}

// capture stores p into its AP's frame ring. Steady state is two slot
// writes; the ring itself is allocated on an AP's first packet only.
func (r *Recorder) capture(p *csi.Packet) {
	r.mu.Lock()
	ring := r.rings[p.APID]
	if ring == nil {
		ring = &apRing{
			pkts: make([]*csi.Packet, r.cfg.FramesPerAP),
			seqs: make([]uint64, r.cfg.FramesPerAP),
		}
		r.rings[p.APID] = ring
	}
	r.capSeq++
	ring.pkts[ring.next] = p
	ring.seqs[ring.next] = r.capSeq
	ring.next = (ring.next + 1) % len(ring.pkts)
	if ring.n < len(ring.pkts) {
		ring.n++
	}
	r.mu.Unlock()
}

// Note appends one decision-journal event. ap is -1 when the event is not
// AP-scoped. Nil-safe; disarmed recorders drop events.
func (r *Recorder) Note(kind string, ap int, mac, detail string, value float64) {
	if r == nil || !r.armed.Load() {
		return
	}
	at := r.now().UnixNano()
	r.mu.Lock()
	r.journal[r.jNext] = Event{
		AtNs: at, CaptureSeq: r.capSeq, Kind: kind,
		AP: ap, MAC: mac, Detail: detail, Value: value,
	}
	r.jNext = (r.jNext + 1) % len(r.journal)
	if r.jCount < len(r.journal) {
		r.jCount++
	}
	r.mu.Unlock()
}

// RecordFix records one published fix with the exact post-breaker-filter
// burst composition (per-AP wire sequences plus content hashes), so
// replay can reconstruct it independent of everything else the server was
// doing. Nil-safe.
func (r *Recorder) RecordFix(mac, mode string, x, y, confidence float64, bursts map[int][]*csi.Packet) {
	if r == nil || !r.armed.Load() {
		return
	}
	// Hash outside the recorder lock: a few dozen packets per fix.
	aps := make([]FixAP, 0, len(bursts))
	ids := make([]int, 0, len(bursts))
	for id := range bursts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pkts := bursts[id]
		fa := FixAP{AP: id, Seqs: make([]uint64, len(pkts)), Hashes: make([]uint64, len(pkts))}
		for i, p := range pkts {
			fa.Seqs[i] = p.Seq
			fa.Hashes[i] = PacketHash(p)
		}
		aps = append(aps, fa)
	}
	rec := FixRecord{
		AtNs: r.now().UnixNano(), MAC: mac, Mode: mode,
		X: x, Y: y, Confidence: confidence,
		XBits: math.Float64bits(x), YBits: math.Float64bits(y), ConfBits: math.Float64bits(confidence),
		APs: aps,
	}
	r.mu.Lock()
	r.fixes[r.fNext] = rec
	r.fNext = (r.fNext + 1) % len(r.fixes)
	if r.fCount < len(r.fixes) {
		r.fCount++
	}
	r.mu.Unlock()
	r.Note(EventFix, -1, mac, mode, confidence)
}

// Trigger requests an asynchronous bundle dump. Triggers within Cooldown
// of the last dump — or while the writer is busy — are coalesced away and
// counted in spotfi_flight_suppressed_total. Returns whether the dump was
// accepted. Never blocks; nil-safe.
func (r *Recorder) Trigger(kind TriggerKind, detail string) bool {
	if r == nil || !r.armed.Load() {
		return false
	}
	now := r.now().UnixNano()
	last := r.lastDumpNs.Load()
	if now-last < r.cfg.Cooldown.Nanoseconds() || !r.lastDumpNs.CompareAndSwap(last, now) {
		r.suppressed[kind].Inc()
		return false
	}
	select {
	case r.dumpCh <- dumpReq{kind: kind, detail: detail}:
		return true
	default:
		// Writer busy and a request already queued: coalesce.
		r.suppressed[kind].Inc()
		return false
	}
}

// DumpNow synchronously freezes a bundle, bypassing the cooldown (the
// cooldown clock still restarts). Used by the manual endpoint, the drain
// flush, and tests. Returns the bundle directory name. Nil-safe: returns
// "" and no error on a nil or disarmed recorder.
func (r *Recorder) DumpNow(kind TriggerKind, detail string) (string, error) {
	if r == nil || !r.armed.Load() {
		return "", nil
	}
	r.lastDumpNs.Store(r.now().UnixNano())
	return r.dump(kind, detail)
}

// Bundles returns the on-disk bundle index, newest first. Nil-safe.
func (r *Recorder) Bundles() []BundleInfo {
	if r == nil {
		return nil
	}
	r.bundleMu.Lock()
	defer r.bundleMu.Unlock()
	return append([]BundleInfo(nil), r.bundles...)
}

// Stats returns the live capture counters for the status endpoint.
func (r *Recorder) Stats() (capSeq uint64, frames, journal, fixes int) {
	if r == nil {
		return 0, 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ring := range r.rings {
		frames += ring.n
	}
	return r.capSeq, frames, r.jCount, r.fCount
}

// Close disarms the recorder and joins the bundle writer. Queued dump
// requests are completed first. Safe to call more than once; nil-safe.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.closeOnce.Do(func() {
		r.armed.Store(false)
		close(r.dumpCh)
	})
	r.wg.Wait()
}

// snapshot is a consistent copy of the capture state, taken under the
// lock and serialized outside it.
type snapshot struct {
	capSeq  uint64
	frames  []*csi.Packet // capture order (merged across APs by capture seq)
	journal []Event       // oldest first
	fixes   []FixRecord   // oldest first
}

// takeSnapshot copies the rings under the lock. The packets themselves
// are shared (immutable post-decode), so this is pointer copies only.
func (r *Recorder) takeSnapshot() snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	type seqPkt struct {
		seq uint64
		p   *csi.Packet
	}
	var all []seqPkt
	for _, ring := range r.rings {
		start := ring.next - ring.n
		for i := 0; i < ring.n; i++ {
			idx := (start + i + len(ring.pkts)) % len(ring.pkts)
			all = append(all, seqPkt{seq: ring.seqs[idx], p: ring.pkts[idx]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	s := snapshot{capSeq: r.capSeq}
	s.frames = make([]*csi.Packet, len(all))
	for i, sp := range all {
		s.frames[i] = sp.p
	}
	s.journal = make([]Event, 0, r.jCount)
	for i := 0; i < r.jCount; i++ {
		s.journal = append(s.journal, r.journal[(r.jNext-r.jCount+i+len(r.journal))%len(r.journal)])
	}
	s.fixes = make([]FixRecord, 0, r.fCount)
	for i := 0; i < r.fCount; i++ {
		f := r.fixes[(r.fNext-r.fCount+i+len(r.fixes))%len(r.fixes)]
		// Deep-copy the AP slices: Covered is stamped per snapshot and
		// the ring entry must stay pristine for later dumps.
		cp := f
		cp.APs = append([]FixAP(nil), f.APs...)
		s.fixes = append(s.fixes, cp)
	}
	return s
}

// PacketHash is a content hash (FNV-1a 64) over every field that feeds
// the pipeline: identity, timing, RSSI, and the full CSI matrix bit
// patterns. Two packets with equal hashes are pipeline-equivalent; the
// hash disambiguates wire sequence numbers reused across traffic regimes.
func PacketHash(p *csi.Packet) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	w(uint64(int64(p.APID)))
	w(p.Seq)
	w(uint64(p.TimestampNs))
	w(math.Float64bits(p.RSSIdBm))
	for i := 0; i < len(p.TargetMAC); i++ {
		h ^= uint64(p.TargetMAC[i])
		h *= prime64
	}
	if p.CSI != nil {
		w(uint64(len(p.CSI.Values)))
		for _, row := range p.CSI.Values {
			for _, v := range row {
				w(math.Float64bits(real(v)))
				w(math.Float64bits(imag(v)))
			}
		}
	}
	return h
}
