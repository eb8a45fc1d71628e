package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime counters read at the window's edges.
const (
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
)

// snapshot is the process state at one edge of a timed window.
type snapshot struct {
	at         time.Duration // since the run's base time
	cpu        time.Duration
	gcCPU      float64
	allocBytes uint64
}

func takeSnapshot(base time.Time) snapshot {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmAllocBytes}}
	metrics.Read(s)
	return snapshot{
		at:         time.Since(base),
		cpu:        processCPU(),
		gcCPU:      s[0].Value.Float64(),
		allocBytes: s[1].Value.Uint64(),
	}
}

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: rmHeapBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak Go heap (live and not yet swept objects)
// while it runs.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.peak.Store(heapBytes())
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := heapBytes(); v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.peak.Load(), heapBytes())
}
