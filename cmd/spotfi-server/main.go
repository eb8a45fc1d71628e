// Command spotfi-server runs the central SpotFi localization server: it
// accepts AP connections, assembles per-target CSI bursts, localizes each
// complete burst, and logs the fixes.
//
// The serving graph is spotfi.Service (admission queue, GOMAXPROCS
// localization workers, degradation ladder, per-AP circuit breakers,
// quality monitor, SLOs, tracing, fix feed, flight recorder). This
// command only turns flags into a spotfi.ServiceConfig; everything else
// is spotfi.DefaultServiceConfig or a component default. -ap (repeatable)
// and -bounds describe the deployment; -batch and -minaps shape burst
// assembly; -admit-* tune the admission queue, whose target also sets the
// ladder's thresholds; -breaker-failures is the quarantine threshold;
// -slo-* set the latency SLO and burn-rate windows; -debug-addr serves
// /metrics, /healthz, /readyz and the /debug/ endpoints; -flight-dir arms
// the flight recorder. SIGINT/SIGTERM drains: intake stops, queued bursts
// get 5 s to localize, and the rest are shed and counted.
//
// Usage:
//
//	spotfi-server -listen 127.0.0.1:7100 \
//	    -ap 0,0.4,0.4,45 -ap 1,15.6,0.4,135 -ap 2,8,9.7,-90 \
//	    -bounds 0,0,16,10 [-batch 10] [-minaps 3] \
//	    [-admit-target 150ms] [-admit-deadline 1s] [-admit-interval 2s] \
//	    [-breaker-failures 8] [-slo-latency-bound 1s] \
//	    [-slo-fast-window 5m] [-slo-slow-window 1h] [-slo-tick 10s] \
//	    [-debug-addr 127.0.0.1:7101] [-flight-dir /var/lib/spotfi/flight] \
//	    [-log-format text]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spotfi"
	"spotfi/internal/cliutil"
)

// drainTimeout is the shutdown budget for localizing already-queued
// bursts; the rest are shed.
const drainTimeout = 5 * time.Second

// effectiveFlags snapshots every flag's effective value (defaults
// included) for the flight bundle: a bundle should say how the server was
// actually configured, not just which flags were passed.
func effectiveFlags() map[string]string {
	m := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

func main() {
	cfg := spotfi.DefaultServiceConfig(nil, spotfi.Bounds{})
	listen := flag.String("listen", "127.0.0.1:7100", "TCP address to listen on")
	debugAddr := flag.String("debug-addr", "", "HTTP address for /metrics, /healthz, /readyz, /debug/ and /debug/pprof/ (disabled if empty)")
	boundsStr := flag.String("bounds", "0,0,16,10", "search bounds minX,minY,maxX,maxY (m)")
	var aps cliutil.APList
	flag.Var(&aps, "ap", "AP spec id,x,y,normalDeg (repeatable)")
	flag.StringVar(&cfg.Flight.Dir, "flight-dir", "",
		"arm the flight recorder and write capture bundles under this directory (disabled if empty)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	version := flag.Bool("version", false, "print build version and exit")
	flag.IntVar(&cfg.Collector.BatchSize, "batch", cfg.Collector.BatchSize, "packets per AP per localization burst")
	flag.IntVar(&cfg.Collector.MinAPs, "minaps", cfg.Collector.MinAPs, "minimum APs with a full batch before localizing")
	flag.IntVar(&cfg.Breaker.Failures, "breaker-failures", 8,
		"failures within the breaker window that trip an AP's breaker open")
	flag.DurationVar(&cfg.Queue.Target, "admit-target", 150*time.Millisecond,
		"acceptable standing queue sojourn; CoDel shedding engages above it")
	flag.DurationVar(&cfg.Queue.Deadline, "admit-deadline", time.Second,
		"hard freshness budget: queued bursts older than this are shed")
	flag.DurationVar(&cfg.Queue.Interval, "admit-interval", 2*time.Second,
		"CoDel observation interval before shedding starts")
	flag.DurationVar(&cfg.SLOLatencyBound, "slo-latency-bound", cfg.SLOLatencyBound,
		"packet→fix latency bound defining a good fix for the latency SLO")
	flag.DurationVar(&cfg.SLO.FastWindow, "slo-fast-window", 5*time.Minute, "fast burn-rate window")
	flag.DurationVar(&cfg.SLO.SlowWindow, "slo-slow-window", time.Hour, "slow burn-rate window")
	flag.DurationVar(&cfg.SLO.Tick, "slo-tick", 10*time.Second, "SLO source sampling interval")
	flag.Parse()

	if *version {
		fmt.Println("spotfi-server", cliutil.ReadBuild())
		return
	}
	logger, err := cliutil.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	bounds, err := cliutil.ParseBounds(*boundsStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(2)
	}
	cfg.APs, cfg.Bounds, cfg.Logger = aps, bounds, logger
	cfg.Flight.Flags = effectiveFlags()
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(2)
	}

	svc, err := spotfi.NewService(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(1)
	}
	cliutil.RegisterBuildInfo(svc.Registry())
	addr, err := svc.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotfi-server:", err)
		os.Exit(1)
	}
	logger.Info("spotfi-server listening", "addr", addr.String(), "aps", len(aps))

	if *debugAddr != "" {
		//lint:allow gospawn debug HTTP listener lives for the whole process; no join needed
		go func() {
			logger.Info("debug endpoints up", "url", "http://"+*debugAddr+"/debug/")
			if err := http.ListenAndServe(*debugAddr, svc.Handler()); err != nil {
				logger.Warn("debug listener failed", "err", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down, draining queued bursts", "deadline", drainTimeout)
	svc.Drain(drainTimeout)
}
