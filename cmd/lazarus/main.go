// Command lazarus runs the full Lazarus control plane over an in-process
// execution plane: it ingests the historical vulnerability dataset (or a
// live feed directory served over HTTP), bootstraps a BFT key-value store
// on the lowest-risk diverse replica set, and then runs daily monitoring
// rounds, printing every reconfiguration decision as simulated time
// advances through the study window.
//
//	lazarus -from 2018-01-01 -days 90 -seed 7
//	lazarus -nvd http://localhost:8080  (crawl feedgen output instead)
package main

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/controlplane"
	"lazarus/internal/feeds"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lazarus:", err)
		os.Exit(1)
	}
}

func run() error {
	from := flag.String("from", "2018-01-01", "simulation start date (YYYY-MM-DD)")
	days := flag.Int("days", 60, "number of daily monitoring rounds")
	seed := flag.Int64("seed", 7, "controller seed")
	nvdBase := flag.String("nvd", "", "base URL of a feedgen-served OSINT mirror (empty = bundled dataset)")
	verbose := flag.Bool("v", false, "verbose controller logging")
	flag.Parse()

	now, err := time.Parse(time.DateOnly, *from)
	if err != nil {
		return fmt.Errorf("parsing -from: %w", err)
	}
	clock := func() time.Time { return now }

	cfg := controlplane.Config{
		N:         4,
		Seed:      *seed,
		Clock:     clock,
		LTUSecret: []byte("lazarus-demo-ltu-secret"),
		ReplicaTuning: func(rc *bft.ReplicaConfig) {
			rc.CheckpointInterval = 64
		},
		App: func() bft.Application { return kvs.New() },
		Net: transport.NewMemory(transport.MemoryConfig{Seed: *seed}),
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf("  | "+format+"\n", args...)
		}
	}

	// Knowledge source: live crawl of a feed mirror, or the bundled
	// synthetic dataset.
	var ds *feeds.Dataset
	if *nvdBase != "" {
		var urls []string
		for y := 2014; y <= 2018; y++ {
			urls = append(urls, fmt.Sprintf("%s/nvdcve-1.1-%d.json", *nvdBase, y))
		}
		crawler, err := osint.NewCrawler(osint.CrawlerConfig{
			NVDFeedURLs: urls,
			Sources: []osint.FeedSpec{
				{URL: *nvdBase + "/files_exploits.csv", Parser: osint.ExploitDBParser{}},
				{URL: *nvdBase + "/cvedetails.html", Parser: osint.CVEDetailsParser{}},
			},
		})
		if err != nil {
			return err
		}
		cfg.Crawler = crawler
	} else {
		ds, err = feeds.GenerateDataset(feeds.GenConfig{Seed: 1})
		if err != nil {
			return err
		}
		cfg.InitialVulns = ds.PublishedBefore(now)
	}

	// Register one demo client.
	clientPub, clientPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	clientID := transport.ClientIDBase + transport.NodeID(1)
	cfg.ClientKeys = map[transport.NodeID]ed25519.PublicKey{clientID: clientPub}

	ctrl, err := controlplane.New(cfg)
	if err != nil {
		return err
	}
	defer ctrl.Stop()

	ctx := context.Background()
	if err := ctrl.Bootstrap(ctx); err != nil {
		return err
	}
	st := ctrl.Status()
	fmt.Printf("%s  bootstrapped CONFIG %v (threshold %.1f)\n",
		now.Format(time.DateOnly), st.Config, st.Threshold)

	// Exercise the service once so there is real replicated state.
	client, err := ctrl.ServiceClient(clientID, clientPriv)
	if err != nil {
		return err
	}
	defer client.Close()
	op, err := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: "genesis", Value: []byte(now.Format(time.DateOnly))})
	if err != nil {
		return err
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	res, err := client.Invoke(cctx, op)
	cancel()
	if err != nil {
		return err
	}
	fmt.Printf("%s  service check: PUT genesis -> %s\n", now.Format(time.DateOnly), res)

	reconfigs := 0
	for d := 0; d < *days; d++ {
		now = now.AddDate(0, 0, 1)
		if ds != nil {
			// New disclosures of the day reach the knowledge base.
			fresh := ds.PublishedIn(now.AddDate(0, 0, -1), now)
			if len(fresh) > 0 {
				if err := ctrl.RefreshIntel(ctx, fresh...); err != nil {
					return err
				}
			}
		} else if err := ctrl.RefreshIntel(ctx); err != nil {
			return err
		}
		decision, err := ctrl.MonitorRound(ctx)
		if err != nil {
			return err
		}
		if decision.Reconfigured {
			reconfigs++
			fmt.Printf("%s  RECONFIG #%d: %s out (risk %.1f), %s in (risk %.1f), trigger %s\n",
				now.Format(time.DateOnly), reconfigs,
				decision.Removed.ID, decision.RiskBefore,
				decision.Added.ID, decision.RiskAfter, decision.Trigger)
		}
	}
	st = ctrl.Status()
	fmt.Printf("\nafter %d days: %d reconfigurations\n", *days, reconfigs)
	fmt.Printf("CONFIG %v\nPOOL %v\nQUARANTINE %v\n", st.Config, st.Pool, st.Quarantine)
	return nil
}
