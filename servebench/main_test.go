package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"spotfi"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tiny shrinks a workload so a run takes seconds even under the race
// detector: a twelfth of the rate, a short lead-in, few recomputed fixes.
func tiny(w workload) workload {
	w.rate /= 12
	w.leadIn = 500 * time.Millisecond
	w.verify = 4
	return w
}

// TestEveryMetricPrinted runs each workload at tiny scale, untraced and
// traced, and checks it prints exactly the metrics BENCHMARK.json names,
// each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	c := loadContract(t)
	for _, wl := range c.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			opts := options{workload: tiny(w), seed: 7, window: 2 * time.Second, traced: traced, setups: 1, spansDir: t.TempDir()}
			res, err := measure(opts, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w.name, traced, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestResultLine checks the command's output contract: the last line of
// standard output is the JSON result. It measures one set-up, so the test
// binary is not re-run as a set-up child.
func TestResultLine(t *testing.T) {
	opts, err := parseFlags([]string{"--workload", "batch40", "--seed", "3", "--seconds", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	opts.setups = 1
	var stdout bytes.Buffer
	if code := report(opts, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEndNames) {
		t.Errorf("result %+v", res)
	}
	if code := run([]string{"--workload", "nosuch"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload accepted")
	}
}

// TestSameSeedSameTraffic checks that a seed fixes the frames and the
// schedule byte for byte, and that another seed changes them.
func TestSameSeedSameTraffic(t *testing.T) {
	build := func(seed int64) *traffic {
		sc, err := newScene(seed, 120, 10)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sc.synthesize(0, sc.visitOrder(60))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.frames.free)
		tr.schedule(150, 4)
		return tr
	}
	a, b, c := build(5), build(5), build(6)
	if !bytes.Equal(a.frames.buf, b.frames.buf) {
		t.Error("same seed, different frames")
	}
	if !slices.Equal(a.order, b.order) || !slices.Equal(a.due, b.due) || !slices.Equal(a.sched, b.sched) {
		t.Error("same seed, different schedule")
	}
	if bytes.Equal(a.frames.buf, c.frames.buf) || slices.Equal(a.due, c.due) {
		t.Error("different seeds, same traffic")
	}
	if rs := a.repeatShare([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); rs != 0 {
		t.Errorf("repeat share %v, want 0", rs)
	}
	// Each AP's packets keep their sequence order, and bursts complete on
	// their schedule.
	last := map[[2]int]uint64{}
	fr := a.reader()
	for i, slot := range a.order {
		p, err := fr.decode(fr.frame(int(slot)))
		if err != nil {
			t.Fatal(err)
		}
		key := [2]int{burstOfSeq(p.Seq), p.APID}
		if prev, ok := last[key]; ok && p.Seq <= prev {
			t.Fatalf("burst %d AP %d: seq %d after %d", key[0], key[1], p.Seq, prev)
		}
		last[key] = p.Seq
		if b := int(slot) / a.perBurst; a.due[i] > a.sched[b] {
			t.Fatalf("packet due at %d after its burst's schedule %d", a.due[i], a.sched[b])
		}
	}
}

// TestPerturbedFixFails checks that the output check passes a served fix
// and rejects one that differs in the last bit.
func TestPerturbedFixFails(t *testing.T) {
	sc, err := newScene(9, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sc.synthesize(0, sc.visitOrder(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.frames.free()
	rungs, err := spotfi.BuildLadder(spotfi.DefaultConfig(sc.sc.Cfg.Bounds), sc.aps, serverModes)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(sc, tr)
	if err != nil {
		t.Fatal(err)
	}
	fr := tr.reader()
	for r, loc := range rungs {
		bursts, err := fr.decodeBurst(r % 2)
		if err != nil {
			t.Fatal(err)
		}
		p, _, _, err := loc.LocalizeBursts(bursts)
		if err != nil {
			t.Fatal(err)
		}
		served := outcome{fixed: true, x: p.X, y: p.Y, conf: p.Confidence, mode: p.Mode}
		if err := chk.check(r%2, served, fr); err != nil {
			t.Errorf("rung %s: served fix rejected: %v", p.Mode, err)
		}
		for _, perturb := range []func(*outcome){
			func(o *outcome) { o.x = math.Nextafter(o.x, math.Inf(1)) },
			func(o *outcome) { o.y = math.Nextafter(o.y, math.Inf(-1)) },
			func(o *outcome) { o.conf = math.Nextafter(o.conf, 2) },
		} {
			bad := served
			perturb(&bad)
			if chk.check(r%2, bad, fr) == nil {
				t.Errorf("rung %s: perturbed fix %+v passed the check", p.Mode, bad)
			}
		}
	}
}

// TestCovered checks the union length behind the unaccounted residual.
func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {2, 4}, {20, 30}}
	if got := covered(iv, 1, 25); got != 3+7+5 {
		t.Errorf("covered = %d, want 15", got)
	}
	spans := []span{{start: 0, end: 10, parent: -1}, {start: 2, end: 5, parent: 0}, {start: 6, end: 7, parent: 0}}
	if self := selfTimes(spans); self[0] != 6 || self[1] != 3 || self[2] != 1 {
		t.Errorf("self times %v, want [6 3 1]", self)
	}
}
