package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// KMeansResult reports one K-means run.
type KMeansResult struct {
	// K is the number of clusters.
	K int
	// Assignment maps each input vector index to its cluster id in
	// [0, K).
	Assignment []int
	// Centroids are the final cluster centres.
	Centroids [][]float64
	// WCSS is the within-cluster sum of squared distances (the quantity
	// the elbow method inspects).
	WCSS float64
	// Iterations is how many Lloyd iterations ran before convergence.
	Iterations int
}

// maxKMeansIterations bounds a Lloyd run; K-means on TF-IDF vectors
// converges in far fewer rounds in practice.
const maxKMeansIterations = 100

// KMeans clusters the vectors into k groups using Lloyd's algorithm with
// k-means++ seeding. The rng drives seeding only; a given (vectors, k,
// seed) triple is fully deterministic.
func KMeans(vectors [][]float64, k int, rng *rand.Rand) (*KMeansResult, error) {
	n := len(vectors)
	switch {
	case n == 0:
		return nil, fmt.Errorf("cluster: no vectors to cluster")
	case k <= 0:
		return nil, fmt.Errorf("cluster: k = %d must be positive", k)
	case k > n:
		return nil, fmt.Errorf("cluster: k = %d exceeds %d vectors", k, n)
	case rng == nil:
		return nil, fmt.Errorf("cluster: nil rng")
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("cluster: vector %d has dim %d, want %d", i, len(v), dim)
		}
	}

	centroids := seedPlusPlus(vectors, k, rng)
	assignment := make([]int, n)
	counts := make([]int, k)
	result := &KMeansResult{K: k}
	for iter := 1; iter <= maxKMeansIterations; iter++ {
		result.Iterations = iter
		changed := false
		for i, v := range vectors {
			best, bestDist := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(v, centroids[c]); d < bestDist {
					best, bestDist = c, d
				}
			}
			if assignment[i] != best || iter == 1 {
				changed = changed || assignment[i] != best
				assignment[i] = best
			}
		}
		if iter > 1 && !changed {
			break
		}
		// Recompute centroids.
		for c := range centroids {
			for d := range centroids[c] {
				centroids[c][d] = 0
			}
			counts[c] = 0
		}
		for i, v := range vectors {
			c := assignment[i]
			counts[c]++
			for d := range v {
				centroids[c][d] += v[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster on the point farthest from
				// its centroid, the standard fix for k-means++ drift.
				far, farDist := 0, -1.0
				for i, v := range vectors {
					if d := sqDist(v, centroids[assignment[i]]); d > farDist {
						far, farDist = i, d
					}
				}
				copy(centroids[c], vectors[far])
				continue
			}
			for d := range centroids[c] {
				centroids[c][d] /= float64(counts[c])
			}
		}
	}
	result.Assignment = assignment
	result.Centroids = centroids
	for i, v := range vectors {
		result.WCSS += sqDist(v, centroids[assignment[i]])
	}
	return result, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ scheme:
// the first uniformly, each next with probability proportional to the
// squared distance from the nearest chosen centroid. Each point keeps its
// distance to the nearest centroid so far, and a step measures it against
// the newest centroid only: O(n·k) distances in all, not O(n·k²). The
// minimum is exact whatever order it is taken in, so the centroids and the
// rng draws are those of rescanning every centroid.
func seedPlusPlus(vectors [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(vectors)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, cloneVec(vectors[first]))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = math.Inf(1)
	}
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		var total float64
		for i, v := range vectors {
			if d := sqDist(v, newest); d < dists[i] {
				dists[i] = d
			}
			total += dists[i]
		}
		var next int
		if total == 0 {
			next = rng.Intn(n) // all points coincide with centroids
		} else {
			target := rng.Float64() * total
			for i, d := range dists {
				target -= d
				if target <= 0 {
					next = i
					break
				}
			}
		}
		centroids = append(centroids, cloneVec(vectors[next]))
	}
	return centroids
}

func cloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

func sqDist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// ElbowK chooses the number of clusters by the elbow method (paper §5.1,
// citing Thorndike): K-means is run for each k in [1, maxK], and the knee
// of the WCSS curve is located as the k whose point has maximum distance
// from the chord connecting the curve's endpoints.
func ElbowK(vectors [][]float64, maxK int, rng *rand.Rand) (int, []float64, error) {
	if maxK <= 0 {
		return 0, nil, fmt.Errorf("cluster: maxK = %d must be positive", maxK)
	}
	if maxK > len(vectors) {
		maxK = len(vectors)
	}
	wcss := make([]float64, maxK)
	for k := 1; k <= maxK; k++ {
		res, err := KMeans(vectors, k, rng)
		if err != nil {
			return 0, nil, err
		}
		wcss[k-1] = res.WCSS
	}
	if maxK <= 2 {
		return maxK, wcss, nil
	}
	// Normalize both axes to [0,1]: nx runs over k, ny over WCSS with
	// ny=1 at k=1 and ny=0 at k=maxK. The chord then connects (0,1) to
	// (1,0), and the knee is the point with maximum perpendicular
	// distance |nx + ny - 1| / sqrt(2) from it.
	xspan := float64(maxK - 1)
	yspan := wcss[0] - wcss[maxK-1]
	if yspan == 0 {
		yspan = 1 // flat curve: every k is equally good, pick k=1 below
	}
	bestK, bestDist := 1, -1.0
	for i := 0; i < maxK; i++ {
		nx := float64(i) / xspan
		ny := (wcss[i] - wcss[maxK-1]) / yspan
		d := math.Abs(nx+ny-1) / math.Sqrt2
		if d > bestDist {
			bestDist, bestK = d, i+1
		}
	}
	return bestK, wcss, nil
}
