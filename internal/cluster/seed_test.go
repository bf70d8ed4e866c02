package cluster_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lazarus/internal/cluster"
	"lazarus/internal/feeds"
)

// quadraticSeedPlusPlus is k-means++ seeding as first written: at every
// step each point's distance to the nearest centroid is recomputed over
// all centroids chosen so far, O(n·k²) distances in all. It is the
// reference cluster.SeedPlusPlus must match bit for bit.
func quadraticSeedPlusPlus(vectors [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(vectors)
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), vectors[rng.Intn(n)]...))
	dists := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, v := range vectors {
			best := math.Inf(1)
			for _, c := range centroids {
				var d float64
				for j := range v {
					d += (v[j] - c[j]) * (v[j] - c[j])
				}
				if d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		var next int
		if total == 0 {
			next = rng.Intn(n)
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
		centroids = append(centroids, append([]float64(nil), vectors[next]...))
	}
	return centroids
}

// sameSeeding reports whether seeding vectors with k centroids from two
// rngs of the given seed gives bit-identical centroids and leaves both rngs
// at the same point of their streams.
func sameSeeding(t *testing.T, vectors [][]float64, k int, seed int64) bool {
	t.Helper()
	gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got := cluster.SeedPlusPlus(vectors, k, gotRng)
	want := quadraticSeedPlusPlus(vectors, k, wantRng)
	if len(got) != len(want) {
		t.Logf("k=%d seed=%d: %d centroids, reference %d", k, seed, len(got), len(want))
		return false
	}
	for c := range want {
		for j := range want[c] {
			if math.Float64bits(got[c][j]) != math.Float64bits(want[c][j]) {
				t.Logf("k=%d seed=%d: centroid %d differs from the reference at %d", k, seed, c, j)
				return false
			}
		}
	}
	if gotRng.Int63() != wantRng.Int63() {
		t.Logf("k=%d seed=%d: seeding drew from the rng differently", k, seed)
		return false
	}
	return true
}

// TestSeedPlusPlusMatchesQuadraticReference: on random inputs — duplicate
// points included, so that the all-distances-zero draw is taken too — the
// incremental seeding picks exactly the reference's centroids.
func TestSeedPlusPlusMatchesQuadraticReference(t *testing.T) {
	f := func(seed int64, nRaw, dimRaw, kRaw, distinctRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n, dim := 1+int(nRaw)%60, 1+int(dimRaw)%8
		distinct := 1 + int(distinctRaw)%n
		points := make([][]float64, distinct)
		for i := range points {
			points[i] = make([]float64, dim)
			for j := range points[i] {
				points[i][j] = rng.NormFloat64()
			}
		}
		vectors := make([][]float64, n)
		for i := range vectors {
			vectors[i] = points[rng.Intn(distinct)]
		}
		return sameSeeding(t, vectors, 1+int(kRaw)%n, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// corpus2017 vectorizes the synthetic 2017 vulnerability corpus of seed 3
// the way the controller does (600-term vocabulary) and returns the
// vectors and the controller's k for it.
func corpus2017(t testing.TB) ([][]float64, int) {
	t.Helper()
	ds, err := feeds.GenerateDataset(feeds.GenConfig{
		Seed:  3,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus := ds.All()
	docs := make([]string, len(corpus))
	for i, v := range corpus {
		docs[i] = v.Description
	}
	return cluster.BuildVocabulary(docs, 600).VectorizeAll(docs), max(8, len(corpus)/8)
}

// TestSeedPlusPlusMatchesQuadraticReferenceOnCorpus: the same on the
// corpus the control loop clusters, at its k and at a few others.
func TestSeedPlusPlusMatchesQuadraticReferenceOnCorpus(t *testing.T) {
	vectors, k := corpus2017(t)
	for _, kk := range []int{2, 8, k} {
		for seed := int64(1); seed <= 3; seed++ {
			if !sameSeeding(t, vectors, kk, seed) {
				t.Errorf("k=%d seed=%d: seeding differs from the quadratic reference", kk, seed)
			}
		}
	}
}

// BenchmarkKMeans clusters the 2017 corpus at the controller's k: the
// clustering half of a control-loop intelligence refresh.
func BenchmarkKMeans(b *testing.B) {
	vectors, k := corpus2017(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(vectors, k, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
