// Package cluster implements deterministic k-means clustering over small
// feature vectors. The paper fixes its processor-count categories to the
// four ranges TACC's administrators suggested (Section 6.2); the authors'
// follow-up system (QBETS) instead learns job categories from the
// workload. This package provides that machinery: cluster the observed job
// shapes, then give each cluster its own predictor (see the learned
// strategy of the autocat experiment, internal/experiments/autocat.go).
package cluster

import (
	"math"
	"math/rand"
)

// Result is a clustering of points into k centers.
type Result struct {
	// Centers holds the k cluster centroids.
	Centers [][]float64
	// Assign maps each input point to its center index.
	Assign []int
	// Inertia is the total squared distance of points to their centers.
	Inertia float64
}

// KMeans clusters points (each a feature vector of equal length) into k
// clusters with Lloyd's algorithm and k-means++ seeding. The run is
// deterministic in seed. k is clamped to the number of distinct points;
// the result may therefore have fewer than k centers.
func KMeans(points [][]float64, k int, seed int64, maxIter int) Result {
	if len(points) == 0 || k < 1 {
		return Result{}
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	distinct := countDistinct(points)
	if k > distinct {
		k = distinct
	}
	rng := rand.New(rand.NewSource(seed))
	centers := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			c := nearest(centers, p)
			if c != assign[i] {
				assign[i] = c
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		dims := len(points[0])
		sums := make([][]float64, len(centers))
		counts := make([]int, len(centers))
		for i := range sums {
			sums[i] = make([]float64, dims)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d, v := range p {
				sums[c][d] += v
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Empty cluster: re-seed it at the point farthest from its
				// center to keep k populated clusters.
				centers[c] = append([]float64(nil), farthestPoint(points, centers, assign)...)
				continue
			}
			for d := range centers[c] {
				centers[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	// Final assignment + inertia.
	inertia := 0.0
	for i, p := range points {
		assign[i] = nearest(centers, p)
		inertia += sqDist(centers[assign[i]], p)
	}
	return Result{Centers: centers, Assign: assign, Inertia: inertia}
}

// Nearest returns the index of the center closest to p.
func (r *Result) Nearest(p []float64) int {
	return nearest(r.Centers, p)
}

// Standardize rescales each feature dimension to zero mean and unit
// variance (constant dimensions are left centered only), returning the
// scaled copies along with the transform so new points can be mapped the
// same way.
func Standardize(points [][]float64) (scaled [][]float64, means, sds []float64) {
	if len(points) == 0 {
		return nil, nil, nil
	}
	dims := len(points[0])
	means = make([]float64, dims)
	sds = make([]float64, dims)
	for _, p := range points {
		for d, v := range p {
			means[d] += v
		}
	}
	for d := range means {
		means[d] /= float64(len(points))
	}
	for _, p := range points {
		for d, v := range p {
			dv := v - means[d]
			sds[d] += dv * dv
		}
	}
	for d := range sds {
		sds[d] = math.Sqrt(sds[d] / float64(len(points)))
		if sds[d] == 0 {
			sds[d] = 1
		}
	}
	scaled = make([][]float64, len(points))
	for i, p := range points {
		q := make([]float64, dims)
		for d, v := range p {
			q[d] = (v - means[d]) / sds[d]
		}
		scaled[i] = q
	}
	return scaled, means, sds
}

// Apply maps a raw point through a Standardize transform.
func Apply(p, means, sds []float64) []float64 {
	q := make([]float64, len(p))
	for d, v := range p {
		q[d] = (v - means[d]) / sds[d]
	}
	return q
}

// seedPlusPlus picks initial centers with the k-means++ rule: the first
// uniformly, each next with probability proportional to its squared
// distance from the nearest chosen center.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, 0, k)
	first := points[rng.Intn(len(points))]
	centers = append(centers, append([]float64(nil), first...))
	d2 := make([]float64, len(points))
	for len(centers) < k {
		total := 0.0
		for i, p := range points {
			d2[i] = sqDist(centers[len(centers)-1], p)
			if len(centers) > 1 {
				prev := sqDistToNearest(centers[:len(centers)-1], p)
				if prev < d2[i] {
					d2[i] = prev
				}
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with centers.
			break
		}
		u := rng.Float64() * total
		idx := 0
		for i, w := range d2 {
			u -= w
			if u <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, append([]float64(nil), points[idx]...))
	}
	return centers
}

func nearest(centers [][]float64, p []float64) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range centers {
		if d := sqDist(c, p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func sqDistToNearest(centers [][]float64, p []float64) float64 {
	best := math.Inf(1)
	for _, c := range centers {
		if d := sqDist(c, p); d < best {
			best = d
		}
	}
	return best
}

func farthestPoint(points, centers [][]float64, assign []int) []float64 {
	best, bestD := points[0], -1.0
	for i, p := range points {
		if d := sqDist(centers[assign[i]], p); d > bestD {
			best, bestD = p, d
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func countDistinct(points [][]float64) int {
	seen := make(map[string]struct{}, len(points))
	buf := make([]byte, 0, 64)
	for _, p := range points {
		buf = buf[:0]
		for _, v := range p {
			bits := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(bits>>s))
			}
		}
		seen[string(buf)] = struct{}{}
	}
	return len(seen)
}
