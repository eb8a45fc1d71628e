package dpath

import (
	"math"
	"math/rand"
	"testing"

	"spotfi/internal/geom"
	"spotfi/internal/music"
)

// synthObservations builds per-packet estimates with a tight direct path
// and jittery indirect paths, mimicking the super-resolution output over a
// burst of packets (the structure of Fig. 5c).
func synthObservations(rng *rand.Rand, packets int) ([][]music.PathEstimate, float64) {
	directAoA := geom.Rad(12)
	directToF := 10e-9
	out := make([][]music.PathEstimate, packets)
	for i := range out {
		out[i] = []music.PathEstimate{
			{ // direct: tight, small ToF, modest power
				AoA:   directAoA + rng.NormFloat64()*geom.Rad(0.4),
				ToF:   directToF + rng.NormFloat64()*0.4e-9,
				Power: 50 + rng.Float64()*5,
			},
			{ // strong reflection: jittery, larger ToF, HIGHEST power
				AoA:   geom.Rad(-35) + rng.NormFloat64()*geom.Rad(3),
				ToF:   45e-9 + rng.NormFloat64()*4e-9,
				Power: 90 + rng.Float64()*10,
			},
			{ // weak scatter: very jittery
				AoA:   geom.Rad(55) + rng.NormFloat64()*geom.Rad(5),
				ToF:   80e-9 + rng.NormFloat64()*6e-9,
				Power: 20 + rng.Float64()*5,
			},
		}
	}
	return out, directAoA
}

func TestIdentifyPicksDirectPath(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	obs, truth := synthObservations(rng, 40)
	res, err := Identify(obs, DefaultConfig(), 71)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("no candidates")
	}
	if geom.Deg(math.Abs(best.AoA-truth)) > 2 {
		t.Fatalf("SpotFi selection picked AoA %v°, want ≈12°", geom.Deg(best.AoA))
	}
}

func TestIdentifyCandidatesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	obs, _ := synthObservations(rng, 30)
	res, err := Identify(obs, DefaultConfig(), 72)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Likelihood > res.Candidates[i-1].Likelihood {
			t.Fatal("candidates not sorted by likelihood")
		}
	}
	var total int
	for _, c := range res.Candidates {
		total += c.Count
	}
	if total != 30*3 {
		t.Fatalf("candidate counts sum to %d, want 90", total)
	}
}

func TestMinToFSelectsSmallestToF(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	obs, truth := synthObservations(rng, 40)
	res, err := Identify(obs, DefaultConfig(), 73)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := res.MinToF()
	if !ok {
		t.Fatal("no candidates")
	}
	// The direct path has the smallest ToF in this synthetic setup.
	if geom.Deg(math.Abs(c.AoA-truth)) > 2 {
		t.Fatalf("min-ToF picked AoA %v°, want ≈12°", geom.Deg(c.AoA))
	}
	for _, other := range res.Candidates {
		if other.ToF < c.ToF-1e-12 {
			t.Fatal("MinToF did not return the smallest-ToF candidate")
		}
	}
}

func TestMaxPowerSelectsStrongestPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	obs, truth := synthObservations(rng, 40)
	res, err := Identify(obs, DefaultConfig(), 74)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := res.MaxPower()
	if !ok {
		t.Fatal("no candidates")
	}
	// The reflection is the most powerful path here — CUPID gets it wrong,
	// which is exactly the failure mode Fig. 8b shows.
	if geom.Deg(math.Abs(c.AoA-truth)) < 10 {
		t.Fatalf("max-power unexpectedly picked the direct path (%v°)", geom.Deg(c.AoA))
	}
	if math.Abs(geom.Deg(c.AoA)-(-35)) > 5 {
		t.Fatalf("max-power should pick the strong reflection near −35°, got %v°", geom.Deg(c.AoA))
	}
}

func TestOracleSelectsClosest(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	obs, truth := synthObservations(rng, 40)
	res, err := Identify(obs, DefaultConfig(), 75)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := res.Oracle(truth)
	if !ok {
		t.Fatal("no candidates")
	}
	for _, other := range res.Candidates {
		if math.Abs(other.AoA-truth) < math.Abs(c.AoA-truth)-1e-12 {
			t.Fatal("oracle did not return the closest candidate")
		}
	}
}

func TestIdentifyTightClusterBeatsLooseWithSmallerToF(t *testing.T) {
	// A spurious very-low-ToF but extremely jittery cluster must lose to
	// the tight direct cluster: the variance terms of Eq. 8 dominate.
	rng := rand.New(rand.NewSource(76))
	packets := 40
	obs := make([][]music.PathEstimate, packets)
	for i := range obs {
		obs[i] = []music.PathEstimate{
			{ // tight direct path at moderate ToF
				AoA:   geom.Rad(20) + rng.NormFloat64()*geom.Rad(0.3),
				ToF:   30e-9 + rng.NormFloat64()*0.3e-9,
				Power: 50,
			},
			{ // spurious estimates at tiny ToF but scattered everywhere
				AoA:   geom.Rad(-60) + rng.NormFloat64()*geom.Rad(18),
				ToF:   5e-9 + math.Abs(rng.NormFloat64())*20e-9,
				Power: 30,
			},
		}
	}
	res, err := Identify(obs, DefaultConfig(), 76)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	if geom.Deg(math.Abs(best.AoA-geom.Rad(20))) > 3 {
		t.Fatalf("likelihood picked the jittery cluster: AoA %v°", geom.Deg(best.AoA))
	}
}

func TestIdentifyErrors(t *testing.T) {
	if _, err := Identify(nil, DefaultConfig(), 77); err == nil {
		t.Fatal("empty observations accepted")
	}
	if _, err := Identify([][]music.PathEstimate{{}, {}}, DefaultConfig(), 77); err == nil {
		t.Fatal("all-empty packets accepted")
	}
}

func TestIdentifySinglePacket(t *testing.T) {
	obs := [][]music.PathEstimate{{
		{AoA: 0.1, ToF: 10e-9, Power: 5},
		{AoA: -0.5, ToF: 50e-9, Power: 8},
	}}
	res, err := Identify(obs, DefaultConfig(), 78)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("got %d candidates from 2 single estimates", len(res.Candidates))
	}
}

func TestEmptyResultSelectors(t *testing.T) {
	r := &Result{}
	if _, ok := r.Best(); ok {
		t.Fatal("Best on empty result")
	}
	if _, ok := r.MinToF(); ok {
		t.Fatal("MinToF on empty result")
	}
	if _, ok := r.MaxPower(); ok {
		t.Fatal("MaxPower on empty result")
	}
	if _, ok := r.Oracle(0); ok {
		t.Fatal("Oracle on empty result")
	}
}

func TestMargin(t *testing.T) {
	cases := []struct {
		name string
		r    Result
		want float64
	}{
		{"none", Result{}, 0},
		{"single", Result{Candidates: []Candidate{{Likelihood: 2}}}, 1},
		{"decisive", Result{Candidates: []Candidate{{Likelihood: 10}, {Likelihood: 1}}}, 0.9},
		{"tied", Result{Candidates: []Candidate{{Likelihood: 5}, {Likelihood: 5}}}, 0},
		{"zero-top", Result{Candidates: []Candidate{{Likelihood: 0}, {Likelihood: 0}}}, 0},
	}
	for _, tc := range cases {
		if got := tc.r.Margin(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Margin() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// synthAoAOnly mimics ESPRIT output over a burst: AoA estimates with the
// ToF axis pinned at zero (not observable by a search-free estimator).
func synthAoAOnly(rng *rand.Rand, packets int) ([][]music.PathEstimate, float64) {
	directAoA := geom.Rad(12)
	out := make([][]music.PathEstimate, packets)
	for i := range out {
		out[i] = []music.PathEstimate{
			{AoA: directAoA + rng.NormFloat64()*geom.Rad(0.4), Power: 50 + rng.Float64()*5},
			{AoA: geom.Rad(-35) + rng.NormFloat64()*geom.Rad(4), Power: 90 + rng.Float64()*10},
			{AoA: geom.Rad(55) + rng.NormFloat64()*geom.Rad(6), Power: 20 + rng.Float64()*5},
		}
	}
	return out, directAoA
}

// TestIdentifyAoAOnly exercises the degenerate-ToF path: clustering must
// fall back to AoA alone, the Eq. 8 ToF-mean term must be zeroed (not
// charged at the normalized midpoint 0.5), and the tight direct cluster
// must still win.
func TestIdentifyAoAOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	obs, truth := synthAoAOnly(rng, 40)
	cfg := DefaultConfig()
	res, err := Identify(obs, cfg, 81)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("no candidates")
	}
	if geom.Deg(math.Abs(best.AoA-truth)) > 2 {
		t.Fatalf("AoA-only selection picked %v°, want ≈12°", geom.Deg(best.AoA))
	}
	for i, c := range res.Candidates {
		if c.NormToF != 0 {
			t.Fatalf("candidate %d NormToF = %v, want 0 on a constant ToF axis", i, c.NormToF)
		}
		if c.ToF != 0 {
			t.Fatalf("candidate %d ToF = %v, want the input's constant 0", i, c.ToF)
		}
		// With the ToF terms inert, the likelihood must reduce to the
		// count/AoA-variance form exactly.
		want := math.Exp(cfg.Weights.WCount*float64(c.Count) - cfg.Weights.WAoAVar*c.AoAVar)
		if math.Abs(c.Likelihood-want) > 1e-12*want {
			t.Fatalf("candidate %d likelihood %v, want %v (ToF terms should be inert)", i, c.Likelihood, want)
		}
	}
}

// TestIdentifyAoAOnlyNonzeroConstant pins the same behavior when the
// constant ToF is nonzero (e.g. a calibration offset applied uniformly):
// candidates echo the constant, and no mid-burst delay penalty appears.
func TestIdentifyAoAOnlyNonzeroConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	obs, _ := synthAoAOnly(rng, 20)
	const off = 25e-9
	for _, pkt := range obs {
		for i := range pkt {
			pkt[i].ToF = off
		}
	}
	res, err := Identify(obs, DefaultConfig(), 82)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Candidates {
		if c.NormToF != 0 {
			t.Fatalf("candidate %d NormToF = %v, want 0", i, c.NormToF)
		}
		if math.Abs(c.ToF-off) > 1e-18 {
			t.Fatalf("candidate %d ToF = %v, want %v", i, c.ToF, off)
		}
	}
}
