package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func gaussianBlob(rng *rand.Rand, cx, cy, sigma float64, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{cx + rng.NormFloat64()*sigma, cy + rng.NormFloat64()*sigma}
	}
	return pts
}

func TestKMeansRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	truth := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	var pts []Point
	for _, c := range truth {
		pts = append(pts, gaussianBlob(rng, c.X, c.Y, 0.3, 40)...)
	}
	clusters, err := KMeans(pts, Config{K: 5, MaxIters: 100, Restarts: 8}, 61)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 5 {
		t.Fatalf("got %d clusters, want 5", len(clusters))
	}
	// Each true center has a recovered mean within 0.5.
	for _, want := range truth {
		found := false
		for _, c := range clusters {
			if math.Hypot(c.Mean.X-want.X, c.Mean.Y-want.Y) < 0.5 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("center %v not recovered; clusters: %+v", want, clusters)
		}
	}
}

func TestKMeansClusterStats(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	// One tight and one loose blob, well separated.
	tight := gaussianBlob(rng, 0, 0, 0.1, 100)
	loose := gaussianBlob(rng, 20, 20, 2.0, 100)
	pts := append(append([]Point{}, tight...), loose...)
	clusters, err := KMeans(pts, Config{K: 2, MaxIters: 100, Restarts: 4}, 62)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters", len(clusters))
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a].Mean.X < clusters[b].Mean.X })
	if clusters[0].Count() != 100 || clusters[1].Count() != 100 {
		t.Fatalf("counts %d/%d, want 100/100", clusters[0].Count(), clusters[1].Count())
	}
	// Variance ordering matches construction: the tight cluster's variance
	// is far smaller.
	if clusters[0].VarX > clusters[1].VarX/4 || clusters[0].VarY > clusters[1].VarY/4 {
		t.Fatalf("variance contrast lost: %+v", clusters)
	}
}

func TestKMeansFewerPointsThanK(t *testing.T) {
	pts := []Point{{0, 0}, {5, 5}, {9, 1}}
	clusters, err := KMeans(pts, Config{K: 5, MaxIters: 10, Restarts: 2}, 63)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters for 3 points, want 3", len(clusters))
	}
	for _, c := range clusters {
		if c.Count() != 1 || c.VarX != 0 || c.VarY != 0 {
			t.Fatalf("singleton cluster malformed: %+v", c)
		}
	}
}

func TestKMeansAllIdenticalPoints(t *testing.T) {
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{3, 4}
	}
	clusters, err := KMeans(pts, Config{K: 5, MaxIters: 10, Restarts: 2}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, c := range clusters {
		total += c.Count()
		if c.Mean != (Point{3, 4}) {
			t.Fatalf("identical-point cluster mean %v", c.Mean)
		}
		if c.VarX != 0 || c.VarY != 0 {
			t.Fatal("identical points should have zero variance")
		}
	}
	if total != 50 {
		t.Fatalf("members total %d, want 50", total)
	}
}

// TestKMeansSeedFixesClusters: KMeans reseeds a pooled generator, so a
// seed gives the same clusters however the pool was used before.
func TestKMeansSeedFixesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := make([]Point, 60)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
	}
	cfg := Config{K: 5, MaxIters: 30, Restarts: 2}
	first, err := KMeans(pts, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := KMeans(pts, cfg, 8); err != nil {
		t.Fatal(err)
	}
	again, err := KMeans(pts, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("seed 7 gave %+v, then %+v", first, again)
	}
}

func TestKMeansErrors(t *testing.T) {
	const seed = 65
	if _, err := KMeans(nil, DefaultConfig(), seed); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := KMeans([]Point{{1, 1}}, Config{K: 0, MaxIters: 10}, seed); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := KMeans([]Point{{1, 1}}, Config{K: 1, MaxIters: 0}, seed); err == nil {
		t.Fatal("MaxIters=0 accepted")
	}
	if _, err := KMeans([]Point{{math.NaN(), 1}}, DefaultConfig(), seed); err == nil {
		t.Fatal("NaN point accepted")
	}
	if _, err := KMeans([]Point{{math.Inf(1), 1}}, DefaultConfig(), seed); err == nil {
		t.Fatal("Inf point accepted")
	}
}

func TestKMeansMembershipPartition(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(66))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 10, rng.Float64() * 10}
		}
		clusters, err := KMeans(pts, Config{K: 1 + rng.Intn(6), MaxIters: 30, Restarts: 2}, seed)
		if err != nil {
			return false
		}
		// Every point appears in exactly one cluster.
		seen := make(map[int]bool)
		for _, c := range clusters {
			for _, m := range c.Members {
				if m < 0 || m >= n || seen[m] {
					return false
				}
				seen[m] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansMeanIsCentroid(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(67))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.NormFloat64(), rng.NormFloat64()}
		}
		clusters, err := KMeans(pts, Config{K: 3, MaxIters: 30, Restarts: 2}, seed)
		if err != nil {
			return false
		}
		for _, c := range clusters {
			var sx, sy float64
			for _, m := range c.Members {
				sx += pts[m].X
				sy += pts[m].Y
			}
			k := float64(c.Count())
			if math.Abs(sx/k-c.Mean.X) > 1e-9 || math.Abs(sy/k-c.Mean.Y) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeRange(t *testing.T) {
	xs := []float64{-1, 0, 3}
	ys := []float64{10, 20, 30}
	pts, norm, err := Normalize(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("point outside unit square: %v", p)
		}
	}
	if pts[0].X != 0 || pts[2].X != 1 || pts[0].Y != 0 || pts[2].Y != 1 {
		t.Fatalf("extremes not mapped to 0/1: %v", pts)
	}
	// Round trip.
	for i := range xs {
		if math.Abs(norm.DenormX(pts[i].X)-xs[i]) > 1e-12 {
			t.Fatalf("DenormX round trip failed at %d", i)
		}
		if math.Abs(norm.DenormY(pts[i].Y)-ys[i]) > 1e-12 {
			t.Fatalf("DenormY round trip failed at %d", i)
		}
	}
}

func TestNormalizeDegenerateAxis(t *testing.T) {
	pts, norm, err := Normalize([]float64{5, 5, 5}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.X != 0.5 {
			t.Fatalf("constant axis should map to 0.5, got %v", p.X)
		}
	}
	if norm.DenormX(0.5) != 5 {
		t.Fatalf("degenerate denorm = %v, want 5", norm.DenormX(0.5))
	}
}

func TestNormalizeErrors(t *testing.T) {
	if _, _, err := Normalize(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := Normalize([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
