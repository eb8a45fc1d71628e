package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"spotfi"
	"spotfi/internal/admit"
)

// checker recomputes fixes with one caller on Workers: 1 Localizers of
// every rung, built without metrics or quality monitor.
type checker struct {
	tr     *traffic
	byMode map[string]*spotfi.Localizer
}

func newChecker(sc *scene, tr *traffic) (*checker, error) {
	cfg := spotfi.DefaultConfig(sc.sc.Cfg.Bounds)
	cfg.Workers = 1
	rungs, err := spotfi.BuildLadder(cfg, sc.aps, serverModes)
	if err != nil {
		return nil, err
	}
	c := &checker{tr: tr, byMode: map[string]*spotfi.Localizer{}}
	for i, r := range rungs {
		c.byMode[admit.Mode(i).String()] = r
	}
	return c, nil
}

// check recomputes burst b on the rung its fix names and compares X, Y
// and Confidence bit for bit.
func (c *checker) check(b int, o outcome, fr *frameReader) error {
	loc, ok := c.byMode[o.mode]
	if !ok {
		return fmt.Errorf("burst %d: fix names unknown rung %q", b, o.mode)
	}
	bursts, err := fr.decodeBurst(b)
	if err != nil {
		return fmt.Errorf("burst %d: %w", b, err)
	}
	p, _, _, err := loc.LocalizeBursts(bursts)
	if err != nil {
		return fmt.Errorf("burst %d: recompute: %w", b, err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(p.X, o.x) || !same(p.Y, o.y) || !same(p.Confidence, o.conf) {
		return fmt.Errorf("burst %d on %s: served (%v, %v, conf %v), recomputed (%v, %v, conf %v)",
			b, o.mode, o.x, o.y, o.conf, p.X, p.Y, p.Confidence)
	}
	return nil
}

// sample picks up to n of ids with a seeded draw, in ascending order.
func sample(ids []int, n int, seed int64) []int {
	if len(ids) <= n {
		return ids
	}
	picked := append([]int(nil), ids...)
	rng := rand.New(rand.NewSource(mix(seed, 6, int64(len(ids)), 0)))
	rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	picked = picked[:n]
	sort.Ints(picked)
	return picked
}

// verify recomputes ids serially and returns the mismatches and how long
// the serial pass (decode + localize) took.
func (c *checker) verify(out []outcome, ids []int) ([]error, time.Duration) {
	fr := c.tr.reader()
	var bad []error
	start := time.Now()
	for _, b := range ids {
		if err := c.check(b, out[b], fr); err != nil {
			bad = append(bad, err)
		}
	}
	return bad, time.Since(start)
}

// mallocs is the process-wide count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocCounts counts, from one goroutine with the graph stopped, the
// heap allocations of decoding ids' frames and of localizing them on the
// serving rungs they were served by.
func allocCounts(g *graph, tr *traffic, out []outcome, ids []int) (perPkt, perFix float64, err error) {
	fr := tr.reader()
	pkts := make([]*spotfi.Packet, 0, len(ids)*tr.perBurst)
	before := mallocs() // unpacking into the reader's buffer allocates nothing
	for _, b := range ids {
		for k := 0; k < tr.perBurst; k++ {
			p, err := fr.decode(fr.frame(b*tr.perBurst + k))
			if err != nil {
				return 0, 0, err
			}
			pkts = append(pkts, p)
		}
	}
	perPkt = float64(mallocs()-before) / float64(len(pkts))
	decoded := make([]map[int][]*spotfi.Packet, len(ids))
	for i := range ids {
		decoded[i] = map[int][]*spotfi.Packet{}
		for _, p := range pkts[i*tr.perBurst : (i+1)*tr.perBurst] {
			decoded[i][p.APID] = append(decoded[i][p.APID], p)
		}
	}
	rungOf := map[string]*spotfi.Localizer{}
	for i, r := range g.rungs {
		rungOf[admit.Mode(i).String()] = r
	}
	before = mallocs()
	for i, b := range ids {
		if _, _, _, err := rungOf[out[b].mode].LocalizeBursts(decoded[i]); err != nil {
			return 0, 0, err
		}
	}
	perFix = float64(mallocs()-before) / float64(len(ids))
	return perPkt, perFix, nil
}
