// Command servebench measures spotfi-server's default serving graph in
// process: wire decode → server.Collector → admit queue, ladder and
// breakers → the spotfi.BuildLadder rungs → feed. A seeded generator
// injects fresh-noise CSI frames with no sockets; see README.md for the
// workloads, the metrics and how the two relate.
//
// Usage:
//
//	servebench --workload steady|overload|batch40 --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Progress and a
// readable summary go to standard error. The exit code is 0 only for a
// valid run whose recomputed fixes matched.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one traffic mix. Rates are fixed numbers, never derived
// from a capacity measured at run time.
type workload struct {
	name      string
	closed    bool
	belowCap  bool          // open loop below capacity: every burst is emitted once and localized on the full rung
	rate      float64       // open loop: bursts offered per second
	overlap   int           // open loop: bursts whose packets interleave
	leadIn    time.Duration // open loop: traffic before the window opens
	batch     int           // packets per AP per burst
	positions int           // ground-truth positions, one target each
	verify    int           // fixes the output check recomputes
	corpus    float64       // closed loop: corpus bursts per core per window second
}

func (w workload) rungs() int {
	if w.closed {
		return 1
	}
	return serverModes
}

// bursts is how many bursts a run of the given window needs.
func (w workload) bursts(window time.Duration) int {
	if w.closed {
		return int(math.Ceil(w.corpus * float64(runtime.GOMAXPROCS(0)) * window.Seconds()))
	}
	return int(math.Floor(w.rate * (w.leadIn + window).Seconds()))
}

var workloads = map[string]workload{
	"steady": {name: "steady", belowCap: true, rate: 12, overlap: 4, leadIn: time.Second,
		batch: 10, positions: 240, verify: 32},
	"overload": {name: "overload", rate: 150, overlap: 4, leadIn: 3 * time.Second,
		batch: 10, positions: 240, verify: 32},
	// batch40's corpus is about eight times what one core localizes in a
	// second, so a much faster Localizer still cannot use it up.
	"batch40": {name: "batch40", closed: true,
		batch: 40, positions: 240, verify: 16, corpus: 50},
}

// setupRuns is how many cold set-ups setup_s is the median of.
const setupRuns = 5

type options struct {
	workload   workload
	seed       int64
	window     time.Duration
	traced     bool
	setups     int
	spansDir   string
	setupProbe bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	if opts.setupProbe {
		d, err := probeSetup(opts)
		if err != nil {
			fmt.Fprintln(stderr, "servebench: setup probe:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
		return 0
	}
	return report(opts, stdout, stderr)
}

// report measures one run and prints its result line; it returns the
// exit code.
func report(opts options, stdout, stderr io.Writer) int {
	res, err := measure(opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "steady, overload or batch40")
	seed := fs.Int64("seed", 1, "seed for the scene, the noise and the schedule")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	traced := fs.Int("trace", 0, "1 adds a traced window and prints per-layer metrics")
	probe := fs.Bool("setup-probe", false, "only set the graph up and print the seconds it took")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := workloads[*name]
	if !ok {
		return options{}, fmt.Errorf("unknown workload %q (want steady, overload or batch40)", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return options{}, errors.New("--seconds must be > 0 and --trace 0 or 1")
	}
	return options{
		workload:   w,
		seed:       *seed,
		window:     time.Duration(*seconds * float64(time.Second)),
		traced:     *traced == 1,
		setups:     setupRuns,
		spansDir:   filepath.Join(".bench_build", "servebench"),
		setupProbe: *probe,
	}, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark prints.
var units = map[string]string{
	"setup_s":        "s",
	"fixes_per_s":    "1/s",
	"deliver_share":  "ratio",
	"fix_p50_ms":     "ms",
	"fix_p95_ms":     "ms",
	"err_p50_m":      "m",
	"cpu_ms_per_fix": "ms",
	"heap_peak_mb":   "MiB",

	"wire.decode_us_per_pkt":        "us",
	"wire.allocs_per_pkt":           "count",
	"server.add_us_per_pkt":         "us",
	"server.pending_pkts_peak":      "count",
	"server.bursts_emitted":         "count",
	"admit.sojourn_p50_ms":          "ms",
	"admit.sojourn_p95_ms":          "ms",
	"admit.shed_share":              "ratio",
	"admit.shed_share.deadline":     "ratio",
	"admit.shed_share.codel":        "ratio",
	"admit.shed_share.evict":        "ratio",
	"admit.mode_share.full":         "ratio",
	"admit.mode_share.fastpath":     "ratio",
	"admit.mode_share.coarse":       "ratio",
	"admit.breaker_opens":           "count",
	"spotfi.localize_ms_p50":        "ms",
	"spotfi.localize_ms_p95":        "ms",
	"spotfi.busy_share":             "ratio",
	"spotfi.fastpath_accept_share":  "ratio",
	"spotfi.allocs_per_fix":         "count",
	"spotfi.unaccounted_ms_per_fix": "ms",
	"spotfi.parallel_speedup":       "ratio",
	"sanitize.ms_per_fix":           "ms",
	"music.ms_per_fix":              "ms",
	"music.cells_per_pkt":           "count",
	"music.dense_fallback_share":    "ratio",
	"dpath.ms_per_fix":              "ms",
	"locate.ms_per_fix":             "ms",
	"locate.iters_per_fix":          "count",
	"feed.publish_us":               "us",
	"runtime.gc_cpu_share":          "ratio",
	"runtime.alloc_kb_per_fix":      "KiB",
	"gen.late_p99_ms":               "ms",
	"gen.repeat_share":              "ratio",
	"trace.overhead_ms_per_fix":     "ms",
}

// endToEndNames lists the metrics an untraced run prints.
var endToEndNames = []string{"setup_s", "fixes_per_s", "deliver_share", "fix_p50_ms", "fix_p95_ms", "err_p50_m", "cpu_ms_per_fix", "heap_peak_mb"}

// measure runs one workload: the untraced window, the output check, and
// either the set-up probes (untraced) or the traced window (traced).
func measure(opts options, log io.Writer) (*result, error) {
	began := time.Now()
	w := opts.workload
	n := w.bursts(opts.window)
	sc, err := newScene(opts.seed, w.positions, w.batch)
	if err != nil {
		return nil, err
	}
	warm, err := sc.synthesize(1, warmTargets(w))
	if err != nil {
		return nil, err
	}
	defer warm.frames.free()
	tr, err := sc.synthesize(0, sc.visitOrder(n))
	if err != nil {
		return nil, err
	}
	defer tr.frames.free()
	if !w.closed {
		tr.schedule(w.rate, w.overlap)
	}
	fmt.Fprintf(log, "servebench: %s seed %d: %d bursts, %.0f MiB of frames, synthesized in %.1fs\n",
		w.name, opts.seed, n, float64(len(tr.frames.buf))/(1<<20), time.Since(began).Seconds())

	g, setup, err := setUp(sc, w, warm, n, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph, err := runPhase(g, tr, w, opts.window, false)
	if err != nil {
		return nil, err
	}
	if err := ph.validity(); err != nil {
		return nil, err
	}
	e2e, samples := ph.endToEnd(sc)

	chk, err := newChecker(sc, tr)
	if err != nil {
		return nil, err
	}
	delivered := ph.delivered()
	ids := sample(delivered, w.verify, opts.seed)
	bad, serial := chk.verify(g.out, ids)
	for _, err := range bad {
		fmt.Fprintln(log, "servebench: output check:", err)
	}
	res := &result{
		Correct:   len(bad) == 0 && len(ids) > 0,
		Attempted: len(ph.window),
		Failed:    ph.failedBursts(),
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(log, "servebench: %d fixes in the window (%d latency samples), %d of them recomputed bit-exact in %.2fs\n",
		ph.fixesInWindow(), samples, len(ids)-len(bad), serial.Seconds())

	values := map[string]float64{}
	if !opts.traced {
		setups := []float64{setup.Seconds()}
		for i := 1; i < opts.setups; i++ {
			s, err := childSetup(opts)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		e2e["setup_s"] = quantile(setups, 0.5)
		fmt.Fprintf(log, "servebench: set-ups %v s\n", setups)
		for _, name := range endToEndNames {
			values[name] = e2e[name]
		}
	} else {
		for k, v := range ph.runtimeLayer() {
			values[k] = v
		}
		serialRate := float64(len(ids)) / serial.Seconds()
		values["spotfi.parallel_speedup"] = e2e["fixes_per_s"] / serialRate

		g2, _, err := setUp(sc, w, warm, n, true)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		ph2, err := runPhase(g2, tr, w, opts.window, true)
		if err != nil {
			return nil, fmt.Errorf("traced window: %w", err)
		}
		if err := ph2.validity(); err != nil {
			return nil, fmt.Errorf("traced window: %w", err)
		}
		for k, v := range ph2.layers() {
			values[k] = v
		}
		tracedCPU := quantile(ph2.bins().cpuPerFix, 0.5)
		values["trace.overhead_ms_per_fix"] = tracedCPU - e2e["cpu_ms_per_fix"]
		perPkt, perFix, err := allocCounts(g, tr, g.out, ids[:min(len(ids), 8)])
		if err != nil {
			return nil, fmt.Errorf("allocation pass: %w", err)
		}
		values["wire.allocs_per_pkt"] = perPkt
		values["spotfi.allocs_per_fix"] = perFix
		path := filepath.Join(opts.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", w.name, opts.seed))
		if err := dumpSpans(path, ph2.bufs, ph2.g.tracer.Recent(), ph2.inWindow()); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
		fmt.Fprintf(log, "servebench: spans written to %s\n", path)
	}
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, v)
		}
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	printSummary(log, res)
	fmt.Fprintf(log, "servebench: run took %.1fs\n", time.Since(began).Seconds())
	return res, nil
}

func runPhase(g *graph, tr *traffic, w workload, window time.Duration, traced bool) (*phase, error) {
	if w.closed {
		return runClosedLoop(g, tr, w, window, traced)
	}
	return runOpenLoop(g, tr, w, window, traced)
}

// probeSetup builds and warms a fresh graph and reports how long that
// took: the set-up a cold server process pays.
func probeSetup(opts options) (time.Duration, error) {
	w := opts.workload
	sc, err := newScene(opts.seed, w.positions, w.batch)
	if err != nil {
		return 0, err
	}
	warm, err := sc.synthesize(1, warmTargets(w))
	if err != nil {
		return 0, err
	}
	defer warm.frames.free()
	g, d, err := setUp(sc, w, warm, w.bursts(opts.window), false)
	if err != nil {
		return 0, err
	}
	g.stop()
	return d, nil
}

// childSetup measures one more set-up in a fresh process, so every
// set-up starts as cold as the first.
func childSetup(opts options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-probe",
		"--workload", opts.workload.name,
		"--seed", strconv.FormatInt(opts.seed, 10),
		"--seconds", strconv.FormatFloat(opts.window.Seconds(), 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func printSummary(log io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(log)
	for _, k := range names {
		fmt.Fprintf(bw, "  %-30s %12.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(bw, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	bw.Flush()
}
