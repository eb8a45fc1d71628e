// Package cluster implements the Gaussian-means clustering SpotFi applies
// to per-packet (AoA, ToF) estimates (Sec. 3.2.3): k-means++ seeding,
// Lloyd iterations with hard Gaussian (nearest-mean) assignment, and the
// per-cluster statistics — mean, population variance, and population count
// — that feed the direct-path likelihood metric of Eq. 8.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Point is a sample in the normalized 2-D (AoA, ToF) feature space.
type Point struct {
	X, Y float64
}

func sqDist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// Cluster is one recovered cluster with the statistics Eq. 8 consumes.
type Cluster struct {
	// Mean is the cluster centroid — the estimate of the underlying
	// path's (AoA, ToF).
	Mean Point
	// VarX and VarY are the population variances of each coordinate over
	// cluster members.
	VarX, VarY float64
	// Members are indices into the input point slice.
	Members []int
}

// Count returns the number of points in the cluster.
func (c *Cluster) Count() int { return len(c.Members) }

// Config controls the clustering run.
type Config struct {
	// K is the target number of clusters. The paper uses 5 — "typically
	// we see at best five significant paths in an indoor environment".
	K int
	// MaxIters bounds Lloyd iterations per restart.
	MaxIters int
	// Restarts reruns seeding+Lloyd and keeps the lowest-distortion run.
	Restarts int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{K: 5, MaxIters: 50, Restarts: 4}
}

// KMeans clusters pts into at most cfg.K clusters. If there are fewer
// points than clusters, each point becomes its own cluster. Empty clusters
// are dropped from the result. seed fixes the k-means++ draws, so equal
// inputs and seeds give equal clusters.
func KMeans(pts []Point, cfg Config, seed int64) ([]Cluster, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("cluster: K must be ≥ 1, got %d", cfg.K)
	}
	if cfg.MaxIters < 1 {
		return nil, fmt.Errorf("cluster: MaxIters must be ≥ 1")
	}
	if cfg.Restarts < 1 {
		cfg.Restarts = 1
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("cluster: non-finite point")
		}
	}
	k := cfg.K
	if k > len(pts) {
		k = len(pts)
	}

	rng := rngs.Get().(*rand.Rand)
	defer rngs.Put(rng)
	rng.Seed(seed)
	best := []int(nil)
	bestCost := math.Inf(1)
	for r := 0; r < cfg.Restarts; r++ {
		assign, cost := lloyd(pts, k, cfg.MaxIters, rng)
		if cost < bestCost {
			bestCost = cost
			best = assign
		}
	}
	return buildClusters(pts, best, k), nil
}

// rngs pools the generators KMeans reseeds per call: a reseeded generator
// draws exactly what a fresh one would, without allocating a 4.9 KB
// source per call.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// lloyd runs one seeded k-means pass and returns assignments and total
// distortion.
func lloyd(pts []Point, k, maxIters int, rng *rand.Rand) ([]int, float64) {
	centers := seedPlusPlus(pts, k, rng)
	assign := make([]int, len(pts))
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range pts {
			bestC, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := sqDist(p, ctr); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		// Recompute centers.
		sums := make([]Point, k)
		counts := make([]int, k)
		for i, p := range pts {
			c := assign[i]
			sums[c].X += p.X
			sums[c].Y += p.Y
			counts[c]++
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// center to avoid losing a cluster slot.
				far, farD := 0, -1.0
				for i, p := range pts {
					if d := sqDist(p, centers[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centers[c] = pts[far]
				changed = true
				continue
			}
			centers[c] = Point{sums[c].X / float64(counts[c]), sums[c].Y / float64(counts[c])}
		}
		if !changed && iter > 0 {
			break
		}
	}
	var cost float64
	for i, p := range pts {
		cost += sqDist(p, centers[assign[i]])
	}
	return assign, cost
}

// seedPlusPlus picks k initial centers with the k-means++ distribution.
func seedPlusPlus(pts []Point, k int, rng *rand.Rand) []Point {
	centers := make([]Point, 0, k)
	centers = append(centers, pts[rng.Intn(len(pts))])
	d2 := make([]float64, len(pts))
	for len(centers) < k {
		var total float64
		for i, p := range pts {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centers; duplicate one.
			centers = append(centers, pts[rng.Intn(len(pts))])
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, w := range d2 {
			target -= w
			if target <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, pts[idx])
	}
	return centers
}

func buildClusters(pts []Point, assign []int, k int) []Cluster {
	byC := make([][]int, k)
	for i, c := range assign {
		byC[c] = append(byC[c], i)
	}
	var out []Cluster
	for _, members := range byC {
		if len(members) == 0 {
			continue
		}
		var cl Cluster
		cl.Members = members
		for _, i := range members {
			cl.Mean.X += pts[i].X
			cl.Mean.Y += pts[i].Y
		}
		n := float64(len(members))
		cl.Mean.X /= n
		cl.Mean.Y /= n
		for _, i := range members {
			dx := pts[i].X - cl.Mean.X
			dy := pts[i].Y - cl.Mean.Y
			cl.VarX += dx * dx
			cl.VarY += dy * dy
		}
		cl.VarX /= n
		cl.VarY /= n
		out = append(out, cl)
	}
	return out
}

// Normalization rescales two feature slices into a common [0,1] range, the
// preprocessing Fig. 5c applies before clustering so AoA (radians) and ToF
// (seconds) distances are commensurate.
type Normalization struct {
	MinX, ScaleX float64
	MinY, ScaleY float64
}

// Normalize maps raw (x, y) samples to [0,1]² and returns the mapping so
// cluster means can be converted back. Degenerate (constant) axes map to
// 0.5.
func Normalize(xs, ys []float64) ([]Point, Normalization, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, Normalization{}, fmt.Errorf("cluster: Normalize needs equal-length non-empty inputs")
	}
	minX, maxX := xs[0], xs[0]
	minY, maxY := ys[0], ys[0]
	for i := range xs {
		minX = math.Min(minX, xs[i])
		maxX = math.Max(maxX, xs[i])
		minY = math.Min(minY, ys[i])
		maxY = math.Max(maxY, ys[i])
	}
	norm := Normalization{MinX: minX, ScaleX: maxX - minX, MinY: minY, ScaleY: maxY - minY}
	pts := make([]Point, len(xs))
	for i := range xs {
		pts[i] = Point{norm.forwardX(xs[i]), norm.forwardY(ys[i])}
	}
	return pts, norm, nil
}

func (n Normalization) forwardX(x float64) float64 {
	if n.ScaleX == 0 {
		return 0.5
	}
	return (x - n.MinX) / n.ScaleX
}

func (n Normalization) forwardY(y float64) float64 {
	if n.ScaleY == 0 {
		return 0.5
	}
	return (y - n.MinY) / n.ScaleY
}

// DenormX maps a normalized X back to raw units.
func (n Normalization) DenormX(x float64) float64 {
	if n.ScaleX == 0 {
		return n.MinX
	}
	return n.MinX + x*n.ScaleX
}

// DenormY maps a normalized Y back to raw units.
func (n Normalization) DenormY(y float64) float64 {
	if n.ScaleY == 0 {
		return n.MinY
	}
	return n.MinY + y*n.ScaleY
}
