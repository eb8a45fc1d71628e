package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotfi"
	"spotfi/internal/admit"
	"spotfi/internal/obs/trace"
)

// drainTimeout bounds how long a run waits, after its last offered
// burst, for every burst to be delivered, shed or failed.
const drainTimeout = 15 * time.Second

// heapSampleEvery is the heap sampler's period.
const heapSampleEvery = 10 * time.Millisecond

// binLen is about how long each of the equal bins the window is cut into
// lasts. The rate and CPU metrics are medians over the bins, so a slow
// spell of the host that covers a few of them does not move the result.
const binLen = 5 * time.Second

// phase is one timed window over a graph.
type phase struct {
	w      workload
	tr     *traffic
	g      *graph
	base   time.Time
	open   snapshot
	close  snapshot
	edges  []snapshot // open, the end of each bin; the last is close
	window []int      // bursts offered in the window

	heapBase, heapPeak uint64
	late               []float64 // open loop: ms each in-window packet was injected after its due time
	fastAccepted       uint64    // fast-path accepted / tried, over the window
	fastTried          uint64
	pendingPeak        int64 // traced open loop: most packets the Collector buffered
	bufs               []*spanBuf
	subDropped         bool
	emitted            uint64 // bursts the Collector emitted over the whole run
}

func (ph *phase) inWindow() func(int) bool {
	set := make(map[int]bool, len(ph.window))
	for _, b := range ph.window {
		set[b] = true
	}
	return func(b int) bool { return set[b] }
}

// fixesInWindow counts fixes that arrived while the window was open.
func (ph *phase) fixesInWindow() int {
	n := 0
	for _, o := range ph.g.out {
		if o.fixed && o.at >= ph.open.at && o.at <= ph.close.at {
			n++
		}
	}
	return n
}

func (ph *phase) fastPathCounters() (accepted, tried uint64) {
	a := ph.g.pm.FastPathAccepted.Value()
	return a, a + ph.g.pm.FastPathFallbacks.Value()
}

func sleepUntil(base time.Time, at time.Duration) {
	if d := at - time.Since(base); d > 0 {
		time.Sleep(d)
	}
}

// openWindow takes the snapshot that opens the window.
func (ph *phase) openWindow() {
	ph.open = takeSnapshot(ph.base)
	ph.edges = []snapshot{ph.open}
}

// holdWindow waits out the window, which opened at from and lasts window,
// taking a snapshot at the end of each bin; the last one closes it.
func (ph *phase) holdWindow(from, window time.Duration) {
	n := max(1, int(math.Round(float64(window)/float64(binLen))))
	for i := 1; i <= n; i++ {
		sleepUntil(ph.base, from+window*time.Duration(i)/time.Duration(n))
		ph.edges = append(ph.edges, takeSnapshot(ph.base))
	}
	ph.close = ph.edges[n]
}

// runOpenLoop injects tr's schedule from one generator goroutine: each
// packet is decoded and added to the Collector when it falls due, never
// earlier. The window covers the bursts scheduled after the lead-in.
func runOpenLoop(g *graph, tr *traffic, w workload, window time.Duration, traced bool) (*phase, error) {
	ph := &phase{w: w, tr: tr, g: g, heapBase: heapBytes()}
	lead := w.leadIn
	ph.base = time.Now()
	g.base, g.baseWallNs, g.sched = ph.base, ph.base.UnixNano(), tr.sched
	if traced {
		g.ingest = newSpanBuf(2 * len(tr.order))
		ph.bufs = append([]*spanBuf{g.ingest}, g.workBuf...)
		for _, b := range ph.bufs {
			b.base = ph.base
		}
	}
	for b, at := range tr.sched {
		if at > int64(lead) && at <= int64(lead+window) {
			ph.window = append(ph.window, b)
		}
	}
	late := make([]int64, len(tr.order))
	var genErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		genErr = g.generate(tr, ph, late, traced)
	}()

	sleepUntil(ph.base, lead)
	ph.openWindow()
	fa0, ft0 := ph.fastPathCounters()
	hs := startHeapSampler(heapSampleEvery)
	ph.holdWindow(lead, window)
	ph.heapPeak = hs.finish()
	fa1, ft1 := ph.fastPathCounters()
	ph.fastAccepted, ph.fastTried = fa1-fa0, ft1-ft0
	<-done

	deadline := time.Now().Add(drainTimeout)
	for g.settled.Load() < int64(tr.bursts) && genErr == nil && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	ph.subDropped = g.stop()
	ph.emitted, _ = g.coll.Stats()
	if genErr != nil {
		return nil, fmt.Errorf("generator: %w", genErr)
	}
	inWin := ph.inWindow()
	for i, slot := range tr.order {
		if inWin(int(slot) / tr.perBurst) {
			ph.late = append(ph.late, float64(late[i])/1e6)
		}
	}
	return ph, nil
}

// generate is the open-loop generator and the server's ingest path in
// one goroutine: per packet, wait for its due time, stamp it, decode the
// frame and add the packet to the Collector.
func (g *graph) generate(tr *traffic, ph *phase, late []int64, traced bool) error {
	fr := tr.reader()
	buf := g.ingest
	for i, slot := range tr.order {
		due := tr.due[i]
		now := int64(time.Since(ph.base))
		if now < due {
			time.Sleep(time.Duration(due - now))
			now = int64(time.Since(ph.base))
		}
		late[i] = now - due
		s := int(slot)
		b := s / tr.perBurst
		tr.stampTime(s, g.baseWallNs+due)
		frame := fr.frame(s)
		sp := buf.begin(kWire, b, -1)
		p, err := fr.decode(frame)
		buf.end(sp)
		if err != nil {
			return err
		}
		g.addSpan = buf.begin(kAdd, b, -1)
		err = g.coll.Add(p)
		buf.end(g.addSpan)
		if err != nil {
			return err
		}
		if traced {
			ph.pendingPeak = max(ph.pendingPeak, g.smet.PendingPackets.Value())
		}
	}
	return nil
}

// runClosedLoop has GOMAXPROCS callers take bursts from the corpus in
// order, each decoding the burst's frames and localizing it on the full
// rung, until the window closes.
func runClosedLoop(g *graph, tr *traffic, w workload, window time.Duration, traced bool) (*phase, error) {
	ph := &phase{w: w, tr: tr, g: g, heapBase: heapBytes()}
	ph.base = time.Now()
	var next atomic.Int64
	var exhausted atomic.Bool
	callers := runtime.GOMAXPROCS(0)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	ph.openWindow()
	hs := startHeapSampler(heapSampleEvery)
	for c := 0; c < callers; c++ {
		var buf *spanBuf
		if traced {
			buf = newSpanBuf(0)
			buf.base = ph.base
			ph.bufs = append(ph.bufs, buf)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = g.callLoop(tr, ph.base, window, &next, &exhausted, buf)
		}(c)
	}
	ph.holdWindow(0, window)
	ph.heapPeak = hs.finish()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if exhausted.Load() {
		return nil, fmt.Errorf("corpus of %d bursts ran out before the %v window closed", tr.bursts, window)
	}
	for b := 0; b < int(next.Load()) && b < tr.bursts; b++ {
		ph.window = append(ph.window, b)
	}
	return ph, nil
}

// callLoop is one closed-loop caller.
func (g *graph) callLoop(tr *traffic, base time.Time, window time.Duration, next *atomic.Int64, exhausted *atomic.Bool, buf *spanBuf) error {
	fr := tr.reader()
	full := g.rungs[0]
	for time.Since(base) < window {
		b := int(next.Add(1) - 1)
		if b >= tr.bursts {
			exhausted.Store(true)
			return nil
		}
		start := time.Since(base)
		bursts := make(map[int][]*spotfi.Packet, apsPerTarget)
		for k := 0; k < tr.perBurst; k++ {
			frame := fr.frame(b*tr.perBurst + k)
			sp := buf.begin(kWire, b, -1)
			p, err := fr.decode(frame)
			buf.end(sp)
			if err != nil {
				return err
			}
			bursts[p.APID] = append(bursts[p.APID], p)
		}
		tc := g.tracer.Start(trace.StageBurst)
		sp := buf.begin(kLocalize, b, -1)
		p, _, _, err := full.LocalizeBurstsTraced(bursts, tc)
		buf.end(sp)
		buf.noteTrace(b, tc)
		tc.Finish()
		end := time.Since(base)
		o := &g.out[b]
		o.lat, o.at = end-start, end
		if err != nil {
			o.failed = true
			continue
		}
		o.fixed, o.x, o.y, o.conf, o.mode = true, p.X, p.Y, p.Confidence, p.Mode
	}
	return nil
}

// validity checks whether a window measured the program as intended.
func (ph *phase) validity() error {
	var errs []string
	if rs := ph.tr.repeatShare(ph.window); rs != 0 {
		errs = append(errs, fmt.Sprintf("gen.repeat_share is %g, want 0", rs))
	}
	if ph.subDropped {
		errs = append(errs, "the feed dropped the benchmark's subscriber")
	}
	for b, o := range ph.g.out {
		if o.emitted > 1 {
			errs = append(errs, fmt.Sprintf("burst %d emitted %d times", b, o.emitted))
			break
		}
	}
	if ph.w.belowCap || ph.w.closed {
		if n := ph.g.breakerOpens.Load(); n != 0 {
			errs = append(errs, fmt.Sprintf("%d breakers opened", n))
		}
	}
	if ph.w.belowCap {
		if ph.emitted != uint64(ph.tr.bursts) {
			errs = append(errs, fmt.Sprintf("collector emitted %d bursts of %d offered", ph.emitted, ph.tr.bursts))
		}
		for b, o := range ph.g.out {
			if o.popped && o.rung != admit.ModeFull {
				errs = append(errs, fmt.Sprintf("stall: burst %d was localized on the %s rung after a %v sojourn", b, o.rung, o.sojourn))
				break
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("invalid run: %v", errs)
	}
	return nil
}

// endToEnd computes the user-facing metrics of an untraced window. The
// rate, delivery and CPU metrics are medians over the window's bins; the
// latency and error quantiles are over all its fixes.
func (ph *phase) endToEnd(sc *scene) (map[string]float64, int) {
	var lats, errs []float64
	for _, b := range ph.window {
		o := ph.g.out[b]
		if !o.fixed {
			continue
		}
		lats = append(lats, float64(o.lat)/1e6)
		truth := sc.truth(int(ph.tr.target[b]))
		errs = append(errs, math.Hypot(o.x-truth.X, o.y-truth.Y))
	}
	bs := ph.bins()
	m := map[string]float64{
		"fixes_per_s":    quantile(bs.rate, 0.5),
		"deliver_share":  quantile(bs.deliver, 0.5),
		"fix_p50_ms":     quantile(lats, 0.50),
		"fix_p95_ms":     quantile(lats, 0.95),
		"err_p50_m":      quantile(errs, 0.50),
		"cpu_ms_per_fix": quantile(bs.cpuPerFix, 0.5),
		"heap_peak_mb":   float64(int64(ph.heapPeak)-int64(ph.heapBase)) / (1 << 20),
	}
	return m, len(lats)
}

// binStats holds one value per bin of the window.
type binStats struct {
	rate      []float64 // fixes that arrived in the bin, per second
	cpuPerFix []float64 // ms of process CPU in the bin per fix that arrived in it
	deliver   []float64 // share of the bursts due (open loop) or started (closed loop) in the bin that were delivered
}

// bins splits the window's fixes, CPU and offered bursts into its bins.
func (ph *phase) bins() binStats {
	n := len(ph.edges) - 1
	// binOf is the bin whose interval (edges[i].at, edges[i+1].at] holds t;
	// times just outside the window fall in its first or last bin.
	binOf := func(t time.Duration) int {
		i := sort.Search(n+1, func(i int) bool { return ph.edges[i].at >= t })
		return min(max(i-1, 0), n-1)
	}
	fixes := make([]int, n)
	for _, o := range ph.g.out {
		if o.fixed && o.at >= ph.open.at && o.at <= ph.close.at {
			fixes[binOf(o.at)]++
		}
	}
	offered, delivered := make([]int, n), make([]int, n)
	for _, b := range ph.window {
		o := ph.g.out[b]
		start := o.at - o.lat
		if !ph.w.closed {
			start = time.Duration(ph.tr.sched[b])
		}
		i := binOf(start)
		offered[i]++
		if o.fixed {
			delivered[i]++
		}
	}
	var bs binStats
	for i := 0; i < n; i++ {
		from, to := ph.edges[i], ph.edges[i+1]
		bs.rate = append(bs.rate, float64(fixes[i])/(to.at-from.at).Seconds())
		bs.cpuPerFix = append(bs.cpuPerFix, float64(to.cpu-from.cpu)/1e6/float64(max(fixes[i], 1)))
		if offered[i] > 0 {
			bs.deliver = append(bs.deliver, float64(delivered[i])/float64(offered[i]))
		}
	}
	return bs
}

// failedBursts counts in-window bursts that failed (breaker drop,
// localize error, panic). Sheds are admission decisions, not failures.
func (ph *phase) failedBursts() int {
	n := 0
	for _, b := range ph.window {
		if ph.g.out[b].failed {
			n++
		}
	}
	return n
}

// runtimeLayer is the runtime's share of an untraced window.
func (ph *phase) runtimeLayer() map[string]float64 {
	fixes := float64(max(ph.fixesInWindow(), 1))
	cpu := (ph.close.cpu - ph.open.cpu).Seconds()
	return map[string]float64{
		"runtime.gc_cpu_share":     (ph.close.gcCPU - ph.open.gcCPU) / math.Max(cpu, 1e-9),
		"runtime.alloc_kb_per_fix": float64(ph.close.allocBytes-ph.open.allocBytes) / 1024 / fixes,
		"gen.late_p99_ms":          zeroNaN(quantile(ph.late, 0.99)), // no schedule in the closed loop
		"gen.repeat_share":         ph.tr.repeatShare(ph.window),
	}
}

// layers computes the per-layer metrics of a traced window from the
// benchmark's spans and the Localizer's span trees.
func (ph *phase) layers() map[string]float64 {
	inWin := ph.inWindow()
	var wire, add, publish []float64
	var localize []float64
	var busy int64
	locSpan := map[int][2]int64{}
	for _, buf := range ph.bufs {
		self := selfTimes(buf.spans)
		for i, s := range buf.spans {
			if s.kind == kLocalize {
				busy += max(0, min(s.end, int64(ph.close.at))-max(s.start, int64(ph.open.at)))
			}
			if s.burst < 0 || !inWin(int(s.burst)) {
				continue
			}
			switch s.kind {
			case kWire:
				wire = append(wire, float64(s.end-s.start)/1e3)
			case kAdd:
				add = append(add, float64(self[i])/1e3)
			case kPublish:
				publish = append(publish, float64(s.end-s.start)/1e3)
			case kLocalize:
				localize = append(localize, float64(s.end-s.start)/1e6)
				locSpan[int(s.burst)] = [2]int64{s.start, s.end}
			}
		}
	}

	offered := float64(max(len(ph.window), 1))
	var sojourns []float64
	shed := map[string]float64{}
	modes := map[string]float64{}
	fixed := 0.0
	for _, b := range ph.window {
		o := ph.g.out[b]
		if o.shed != "" {
			shed[string(o.shed)]++
		}
		if o.popped {
			sojourns = append(sojourns, float64(o.sojourn)/1e6)
		}
		if o.fixed {
			modes[o.mode]++
			fixed++
		}
	}
	totalShed := 0.0
	for _, n := range shed {
		totalShed += n
	}

	// The Localizer's span trees, by burst.
	traceIDs := map[string]int{}
	for _, buf := range ph.bufs {
		for b, id := range buf.traces {
			traceIDs[id] = b
		}
	}
	var st stageSplit
	traced := 0
	for _, td := range ph.g.tracer.Recent() {
		b, ok := traceIDs[td.ID]
		if !ok || !inWin(b) || !ph.g.out[b].fixed {
			continue
		}
		iv, ok := locSpan[b]
		if !ok {
			continue
		}
		s := splitTrace(td, ph.base, iv[0], iv[1])
		st.sanitize += s.sanitize
		st.music += s.music
		st.dpath += s.dpath
		st.locate += s.locate
		st.unaccounted += s.unaccounted
		st.musicPkts += s.musicPkts
		st.cells += s.cells
		st.denseFallback += s.denseFallback
		st.iters += s.iters
		traced++
	}
	perFix := func(ns int64) float64 { return float64(ns) / 1e6 / float64(max(traced, 1)) }
	share := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	workers := float64(len(ph.bufs))
	if !ph.w.closed {
		workers-- // the ingest buffer
	}
	return map[string]float64{
		"wire.decode_us_per_pkt":        mean(wire),
		"server.add_us_per_pkt":         mean(add),
		"server.pending_pkts_peak":      float64(ph.pendingPeak),
		"server.bursts_emitted":         float64(ph.emitted),
		"admit.sojourn_p50_ms":          zeroNaN(quantile(sojourns, 0.50)),
		"admit.sojourn_p95_ms":          zeroNaN(quantile(sojourns, 0.95)),
		"admit.shed_share":              totalShed / offered,
		"admit.shed_share.deadline":     shed["stale"] / offered,
		"admit.shed_share.codel":        shed["codel"] / offered,
		"admit.shed_share.evict":        shed["full"] / offered,
		"admit.mode_share.full":         share(modes["full"], fixed),
		"admit.mode_share.fastpath":     share(modes["fastpath"], fixed),
		"admit.mode_share.coarse":       share(modes["coarse"], fixed),
		"admit.breaker_opens":           float64(ph.g.breakerOpens.Load()),
		"spotfi.localize_ms_p50":        zeroNaN(quantile(localize, 0.50)),
		"spotfi.localize_ms_p95":        zeroNaN(quantile(localize, 0.95)),
		"spotfi.busy_share":             float64(busy) / (float64(ph.close.at-ph.open.at) * workers),
		"spotfi.fastpath_accept_share":  share(float64(ph.fastAccepted), float64(ph.fastTried)),
		"spotfi.unaccounted_ms_per_fix": perFix(st.unaccounted),
		"sanitize.ms_per_fix":           perFix(st.sanitize),
		"music.ms_per_fix":              perFix(st.music),
		"music.cells_per_pkt":           share(float64(st.cells), float64(st.musicPkts)),
		"music.dense_fallback_share":    share(float64(st.denseFallback), float64(st.musicPkts)),
		"dpath.ms_per_fix":              perFix(st.dpath),
		"locate.ms_per_fix":             perFix(st.locate),
		"locate.iters_per_fix":          share(float64(st.iters), float64(traced)),
		"feed.publish_us":               mean(publish),
	}
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// delivered lists the in-window bursts that produced a fix, in order.
func (ph *phase) delivered() []int {
	var out []int
	for _, b := range ph.window {
		if ph.g.out[b].fixed {
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}
