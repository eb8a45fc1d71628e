package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spotfi/internal/obs/trace"
)

// spanKind names the layer call a benchmark span wraps.
type spanKind uint8

const (
	kWire     spanKind = iota // wire.ReadFrame + wire.DecodeCSIReport
	kAdd                      // server.Collector.Add
	kPush                     // admit.Queue.Push (inside Add's burst handler)
	kPop                      // admit.Queue.Pop; val is the burst's sojourn
	kObserve                  // admit.Ladder.Observe
	kLocalize                 // spotfi.Localizer.LocalizeBurstsTraced
	kPublish                  // feed.Feed.Publish
)

var kindNames = [...]string{"wire.decode", "server.add", "admit.push", "admit.pop", "admit.observe", "spotfi.localize", "feed.publish"}

// span is one timed call, in ns since the run's base time.
type span struct {
	start, end int64
	burst      int32
	parent     int32 // index in the same buffer, -1 for none
	kind       spanKind
	val        int64
}

// spanBuf records the spans of one goroutine. A nil buffer records
// nothing, so untraced runs pay a nil check per call.
type spanBuf struct {
	base   time.Time
	spans  []span
	traces map[int]string // burst → ID of the trace LocalizeBurstsTraced recorded into
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{spans: make([]span, 0, capacity), traces: make(map[int]string)}
}

func (b *spanBuf) begin(kind spanKind, burst int, parent int32) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{start: int64(time.Since(b.base)), burst: int32(burst), parent: parent, kind: kind})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.spans[i].end = int64(time.Since(b.base))
}

// finish ends span i and sets the burst it turned out to serve.
func (b *spanBuf) finish(i int32, burst int, val int64) {
	if b == nil {
		return
	}
	b.spans[i].end = int64(time.Since(b.base))
	b.spans[i].burst = int32(burst)
	b.spans[i].val = val
}

func (b *spanBuf) noteTrace(burst int, tr *trace.Trace) {
	if b == nil || tr == nil {
		return
	}
	b.traces[burst] = tr.ID()
}

// selfTime is a span's duration minus the part of it its children cover.
// Children of one parent never overlap here (they run on the parent's
// goroutine), so their durations add.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// stageSplit is the Localizer's own span tree for one fix, folded into
// the benchmark's stages.
type stageSplit struct {
	sanitize, music, dpath, locate  int64 // ns, summed over the stage's spans
	unaccounted                     int64 // ns of the LocalizeBurstsTraced call no stage span covers
	musicPkts, cells, denseFallback int64
	iters                           int64
}

// stageNames maps Localizer span names to stages.
var stageNames = map[string]string{
	trace.StageSanitize: "sanitize",
	trace.StageEstimate: "music",
	trace.StageCluster:  "dpath",
	trace.StageSelect:   "dpath",
	trace.StageLocate:   "locate",
}

// splitTrace folds td's stage spans into a stageSplit; [lo, hi] is the
// benchmark's LocalizeBurstsTraced span in ns since base.
func splitTrace(td trace.TraceData, base time.Time, lo, hi int64) stageSplit {
	var s stageSplit
	origin := int64(td.Start.Sub(base))
	var iv [][2]int64
	for _, sp := range td.Spans {
		stage, ok := stageNames[sp.Name]
		if !ok {
			continue
		}
		start := origin + sp.StartNS
		iv = append(iv, [2]int64{start, start + sp.DurNS})
		switch stage {
		case "sanitize":
			s.sanitize += sp.DurNS
		case "music":
			s.music += sp.DurNS
			if est, _ := sp.Attrs["estimator"].(string); est != "esprit" {
				s.musicPkts++
				s.cells += attrInt(sp.Attrs, "cells_swept")
				s.denseFallback += attrInt(sp.Attrs, "dense_fallback")
			}
		case "dpath":
			s.dpath += sp.DurNS
		case "locate":
			s.locate += sp.DurNS
			s.iters += attrInt(sp.Attrs, "iters")
		}
	}
	s.unaccounted = (hi - lo) - covered(iv, lo, hi)
	return s
}

func attrInt(attrs map[string]any, key string) int64 {
	v, _ := attrs[key].(int64)
	return v
}

// dumpSpans writes the traced window's benchmark spans, then the
// Localizer traces of its bursts, as gzipped JSON lines.
func dumpSpans(path string, bufs []*spanBuf, traces []trace.TraceData, inWindow func(burst int) bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	type rec struct {
		Buf    int    `json:"buf"`
		Index  int    `json:"i"`
		Layer  string `json:"layer"`
		Burst  int32  `json:"burst"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Val    int64  `json:"val,omitempty"`
	}
	for bi, b := range bufs {
		for i, s := range b.spans {
			if s.burst < 0 || !inWindow(int(s.burst)) {
				continue
			}
			if err := enc.Encode(rec{bi, i, kindNames[s.kind], s.burst, s.parent, s.start, s.end, s.val}); err != nil {
				return err
			}
		}
	}
	burstOf := map[string]int{}
	for _, b := range bufs {
		for burst, id := range b.traces {
			burstOf[id] = burst
		}
	}
	for _, td := range traces {
		burst, ok := burstOf[td.ID]
		if !ok || !inWindow(burst) {
			continue
		}
		if err := enc.Encode(struct {
			Burst int             `json:"burst"`
			Trace trace.TraceData `json:"trace"`
		}{burst, td}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
