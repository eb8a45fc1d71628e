// Package dpath identifies the direct propagation path among SpotFi's
// per-packet (AoA, ToF) estimates (paper Sec. 3.2): it pools estimates
// from consecutive packets, clusters them in the normalized (AoA, ToF)
// plane, scores each cluster with the likelihood metric of Eq. 8, and
// offers the selection baselines the paper compares against (LTEye's
// min-ToF, CUPID's max-power, and the oracle).
package dpath

import (
	"fmt"
	"math"
	"sort"

	"spotfi/internal/cluster"
	"spotfi/internal/music"
)

// Weights are the Eq. 8 scale factors: likelihood_k =
// exp(WCount·C_k − WAoAVar·σ̄θ_k − WToFVar·σ̄τ_k − WToFMean·τ̄_k).
// Variances and the mean ToF are measured in the normalized [0,1] feature
// space. C_k is the cluster's raw point count, not the paper's normalized
// C̄_k, so the count term grows with burst size.
type Weights struct {
	WCount   float64
	WAoAVar  float64
	WToFVar  float64
	WToFMean float64
}

// DefaultWeights balances the terms for typical bursts of 10–170 packets.
// The values were calibrated on the simulated testbed by sweeping each
// weight against the oracle selection error (see the weight-sensitivity
// ablation bench).
func DefaultWeights() Weights {
	return Weights{WCount: 0.06, WAoAVar: 300, WToFVar: 300, WToFMean: 5}
}

// Score computes the Eq. 8 likelihood of a candidate under weights w, with
// σ̄ and τ̄ in normalized units and C the raw cluster point count:
// exp(WCount·C − WAoAVar·σ̄θ − WToFVar·σ̄τ − WToFMean·τ̄).
func (w Weights) Score(c Candidate) float64 {
	return math.Exp(
		w.WCount*float64(c.Count) -
			w.WAoAVar*c.AoAVar -
			w.WToFVar*c.ToFVar -
			w.WToFMean*c.NormToF)
}

// Config controls identification.
type Config struct {
	Cluster cluster.Config
	Weights Weights
	// ToFWindowS drops per-packet estimates whose ToF is further than
	// this from the burst's median ToF before clustering. Indoor excess
	// path delays are bounded (≈66 ns for 20 m of extra travel), so
	// estimates far outside the bulk are ghost peaks; left in, a
	// repeatable ghost at an extreme ToF both stretches the normalized
	// ToF axis and manufactures a zero-variance "earliest" cluster.
	// Zero disables the filter.
	ToFWindowS float64
	// MinClusterFrac is the minimum fraction of packets a cluster must
	// cover to be a direct-path candidate (floored at 2 points): a
	// cluster seen in one packet has degenerate zero variance and would
	// otherwise outscore every real path. This implements the paper's
	// count-term insight ("a spurious cluster ... is likely to have
	// [fewer] measurements") as a hard eligibility floor. Ineligible
	// clusters are dropped unless nothing survives.
	MinClusterFrac float64
}

// DefaultConfig returns the paper's configuration (5 clusters).
func DefaultConfig() Config {
	return Config{
		Cluster:        cluster.DefaultConfig(),
		Weights:        DefaultWeights(),
		ToFWindowS:     80e-9,
		MinClusterFrac: 0.2,
	}
}

// Candidate is one clustered path hypothesis.
type Candidate struct {
	// AoA and ToF are the cluster means in radians and seconds.
	AoA float64
	ToF float64
	// Likelihood is the Eq. 8 direct-path likelihood.
	Likelihood float64
	// Count is the number of per-packet estimates in the cluster.
	Count int
	// AoAVar and ToFVar are population variances in normalized units.
	AoAVar, ToFVar float64
	// NormToF is the cluster's mean ToF in the normalized [0,1] feature
	// space — the τ̄ that enters Eq. 8 (0 = earliest path in the burst).
	NormToF float64
	// MaxPower is the largest MUSIC pseudo-spectrum value among member
	// estimates (the CUPID selection criterion).
	MaxPower float64
}

// Result is the ranked outcome of direct-path identification for one AP.
type Result struct {
	// Candidates are sorted by descending likelihood.
	Candidates []Candidate
}

// Best returns the highest-likelihood candidate — SpotFi's direct path.
func (r *Result) Best() (Candidate, bool) {
	if len(r.Candidates) == 0 {
		return Candidate{}, false
	}
	return r.Candidates[0], true
}

// Margin returns the top-two likelihood margin 1 − l₂/l₁ ∈ [0,1]: how
// decisively the best candidate beat the runner-up under Eq. 8. A single
// candidate is maximally decisive (1); no candidates score 0.
func (r *Result) Margin() float64 {
	switch {
	case len(r.Candidates) == 0:
		return 0
	case len(r.Candidates) == 1:
		return 1
	}
	l1 := r.Candidates[0].Likelihood
	if l1 <= 0 {
		return 0
	}
	m := 1 - r.Candidates[1].Likelihood/l1
	if m < 0 {
		return 0
	}
	return m
}

// MinToF returns the candidate with the smallest mean ToF — the LTEye
// selection rule (valid because STO shifts all paths of a packet equally).
func (r *Result) MinToF() (Candidate, bool) {
	if len(r.Candidates) == 0 {
		return Candidate{}, false
	}
	best := r.Candidates[0]
	for _, c := range r.Candidates[1:] {
		if c.ToF < best.ToF {
			best = c
		}
	}
	return best, true
}

// MaxPower returns the candidate containing the single strongest MUSIC
// spectrum peak — the CUPID selection rule.
func (r *Result) MaxPower() (Candidate, bool) {
	if len(r.Candidates) == 0 {
		return Candidate{}, false
	}
	best := r.Candidates[0]
	for _, c := range r.Candidates[1:] {
		if c.MaxPower > best.MaxPower {
			best = c
		}
	}
	return best, true
}

// Oracle returns the candidate whose AoA is closest to the ground-truth
// direct-path AoA — the upper bound the paper measures selection schemes
// against.
func (r *Result) Oracle(truthAoA float64) (Candidate, bool) {
	if len(r.Candidates) == 0 {
		return Candidate{}, false
	}
	best := r.Candidates[0]
	for _, c := range r.Candidates[1:] {
		if math.Abs(c.AoA-truthAoA) < math.Abs(best.AoA-truthAoA) {
			best = c
		}
	}
	return best, true
}

// Identify pools per-packet path estimates, clusters them, and scores the
// clusters. perPacket[i] holds the super-resolution estimates from packet
// i; empty packets are skipped. seed fixes the k-means++ draws, so equal
// inputs and seeds give equal results.
//
// AoA-only input — every estimate carrying the same ToF, as produced by
// search-free estimators like ESPRIT where ToF is not observable — is
// supported: the degenerate ToF axis collapses under normalization
// (cluster.Normalize maps a constant axis to 0.5), so clustering runs on
// AoA alone, and the Eq. 8 ToF-mean term is zeroed rather than charging
// every cluster a phantom mid-burst delay. Ranking is unaffected either
// way (the term would be a common factor), but absolute likelihoods stay
// comparable with joint (AoA, ToF) runs. MinToF is meaningless on such
// input: every candidate reports the same ToF.
func Identify(perPacket [][]music.PathEstimate, cfg Config, seed int64) (*Result, error) {
	var aoas, tofs, powers []float64
	packets := 0
	for _, pkt := range perPacket {
		if len(pkt) > 0 {
			packets++
		}
		for _, p := range pkt {
			aoas = append(aoas, p.AoA)
			tofs = append(tofs, p.ToF)
			powers = append(powers, p.Power)
		}
	}
	if len(aoas) == 0 {
		return nil, fmt.Errorf("dpath: no path estimates to identify from")
	}

	// Ghost-peak rejection: drop estimates whose ToF is implausibly far
	// from the burst's bulk. Skipped if it would discard half the data.
	if cfg.ToFWindowS > 0 {
		med := medianOf(tofs)
		var fa, ft, fp []float64
		for i := range tofs {
			if math.Abs(tofs[i]-med) <= cfg.ToFWindowS {
				fa = append(fa, aoas[i])
				ft = append(ft, tofs[i])
				fp = append(fp, powers[i])
			}
		}
		if len(ft)*2 >= len(tofs) {
			aoas, tofs, powers = fa, ft, fp
		}
	}
	pts, norm, err := cluster.Normalize(aoas, tofs)
	if err != nil {
		return nil, err
	}
	clusters, err := cluster.KMeans(pts, cfg.Cluster, seed)
	if err != nil {
		return nil, err
	}

	// A constant ToF axis (AoA-only estimates) carries no earliest-path
	// information: every cluster would sit at the normalized midpoint 0.5
	// and Eq. 8 would charge each one the same phantom delay.
	aoaOnly := norm.ScaleY == 0

	res := &Result{Candidates: make([]Candidate, 0, len(clusters))}
	for _, cl := range clusters {
		cand := Candidate{
			AoA:     norm.DenormX(cl.Mean.X),
			ToF:     norm.DenormY(cl.Mean.Y),
			Count:   cl.Count(),
			AoAVar:  cl.VarX,
			ToFVar:  cl.VarY,
			NormToF: cl.Mean.Y,
		}
		if aoaOnly {
			cand.NormToF = 0
		}
		for _, m := range cl.Members {
			if powers[m] > cand.MaxPower {
				cand.MaxPower = powers[m]
			}
		}
		cand.Likelihood = cfg.Weights.Score(cand)
		res.Candidates = append(res.Candidates, cand)
	}

	// Population floor: a direct-path candidate must recur across packets.
	if cfg.MinClusterFrac > 0 {
		minCount := int(math.Ceil(cfg.MinClusterFrac * float64(packets)))
		if minCount < 2 {
			minCount = 2
		}
		var kept []Candidate
		for _, c := range res.Candidates {
			if c.Count >= minCount {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 {
			res.Candidates = kept
		}
	}
	sortByLikelihood(res.Candidates)
	return res, nil
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortByLikelihood(cands []Candidate) {
	// Insertion sort: at most K=5 candidates.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].Likelihood > cands[j-1].Likelihood; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}
