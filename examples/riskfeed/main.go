// Command riskfeed demonstrates the Lazarus risk pipeline on the bundled
// historical dataset: it builds the knowledge base (vulnerability records
// + description clusters), scores every OS pair with the Equation 5
// metric, and prints the lowest- and highest-risk 4-replica
// configurations as of a chosen date.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"lazarus/internal/cluster"
	"lazarus/internal/core"
	"lazarus/internal/feeds"
	"lazarus/internal/strategies"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	asof := time.Date(2018, 5, 15, 0, 0, 0, 0, time.UTC)
	fmt.Printf("== Lazarus risk pipeline, knowledge as of %s ==\n\n", asof.Format(time.DateOnly))

	ds, err := feeds.GenerateDataset(feeds.GenConfig{Seed: 1})
	if err != nil {
		return err
	}
	corpus := ds.PublishedBefore(asof)
	fmt.Printf("knowledge base: %d vulnerability records\n", len(corpus))

	model, err := cluster.BuildModel(corpus, cluster.Config{
		K:             len(corpus) / 8,
		MaxVocabulary: 600,
		Seed:          1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("description clustering: k=%d clusters\n\n", model.Clusters.K)

	intel, err := core.NewIntel(corpus, model.Clusters)
	if err != nil {
		return err
	}
	intel.SetSimilarityGate(func(a, b string) bool { return model.Cosine(a, b) >= 0.60 })
	engine, err := core.NewRiskEngine(intel, core.DefaultScoreParams())
	if err != nil {
		return err
	}

	// Pair risks: the most and least dangerous pairings.
	universe := feeds.Replicas()
	type pairRisk struct {
		a, b string
		risk float64
	}
	var pairs []pairRisk
	for i := 0; i < len(universe); i++ {
		for j := i + 1; j < len(universe); j++ {
			pairs = append(pairs, pairRisk{
				universe[i].ID, universe[j].ID,
				engine.PairRisk(universe[i], universe[j], asof),
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].risk > pairs[j].risk })
	fmt.Println("highest-risk OS pairs (shared weaknesses, Equation 5):")
	for _, p := range pairs[:5] {
		fmt.Printf("  %-5s + %-5s  risk %8.1f\n", p.a, p.b, p.risk)
	}
	fmt.Println("lowest-risk OS pairs:")
	for _, p := range pairs[len(pairs)-5:] {
		fmt.Printf("  %-5s + %-5s  risk %8.1f\n", p.a, p.b, p.risk)
	}

	// The configuration Algorithm 1 would start from.
	rng := rand.New(rand.NewSource(42))
	start, err := strategies.StartLazarus(universe, 4, engine, 0, asof, rng)
	if err != nil {
		return err
	}
	best := start.Config()
	fmt.Printf("\nrecommended CONFIG (greedy minimum-risk): %v at risk %.1f (threshold %.1f)\n",
		best.IDs(), engine.Risk(best, asof), start.Threshold())

	// Show the effect of a fresh critical CVE on the recommendation.
	fmt.Println("\nscore evolution of CVE-2018-8897 (MOV SS, the May 2018 anchor):")
	v := ds.ByID("CVE-2018-8897")
	params := core.DefaultScoreParams()
	for _, off := range []int{0, 1, 5, 30, 365} {
		at := v.Published.AddDate(0, 0, off)
		fmt.Printf("  +%3dd  score %.2f (state %s)\n",
			off, params.Score(v, at), params.StateOf(v, at))
	}
	return nil
}
