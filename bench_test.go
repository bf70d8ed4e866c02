package lazarus

// Benchmarks, one per paper table/figure (run: go test -bench=. -benchmem).
//
// The BenchmarkFig7/Fig10 series drive the REAL replication library (four
// replicas over the in-memory transport, closed-loop clients) and report
// achieved ops/sec; absolute values reflect this host, while the paper's
// per-OS virtualization effects are reproduced by the calibrated model
// (BenchmarkModel series and cmd/lazbench). BenchmarkFig5Month runs one
// month-slot of the §6 risk simulation end to end.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/apps/ordering"
	"lazarus/internal/apps/sieveq"
	"lazarus/internal/bft"
	"lazarus/internal/bft/bfttest"
	"lazarus/internal/catalog"
	"lazarus/internal/cluster"
	"lazarus/internal/core"
	"lazarus/internal/feeds"
	"lazarus/internal/perfmodel"
	"lazarus/internal/riskim"
	"lazarus/internal/transport"
	"lazarus/internal/workload"
)

// benchCluster launches a 4-replica cluster and returns n clients.
func benchCluster(b *testing.B, app bfttest.AppFactory, clients int) (*bfttest.Cluster, []workload.Invoker) {
	b.Helper()
	cl, err := bfttest.Launch(app, bfttest.Options{
		N:                  4,
		Clients:            clients,
		CheckpointInterval: 4096,
		BatchDelay:         500 * time.Microsecond,
		ViewChangeTimeout:  5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	invokers := make([]workload.Invoker, clients)
	for i := 0; i < clients; i++ {
		c, err := cl.Client(i)
		if err != nil {
			b.Fatal(err)
		}
		invokers[i] = c
	}
	return cl, invokers
}

// runBench drives b.N operations through the clients and reports ops/sec.
func runBench(b *testing.B, invokers []workload.Invoker, nextOp func(i int) []byte) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	ops := make([][]byte, b.N)
	for i := range ops {
		ops[i] = nextOp(i)
	}
	b.ResetTimer()
	res, err := workload.RunCount(ctx, invokers, ops)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors > 0 {
		b.Fatalf("%d failed invocations", res.Errors)
	}
	b.ReportMetric(res.Throughput(), "ops/sec")
}

// BenchmarkFig7Microbench00 is the 0/0 microbenchmark on the real library
// (paper Figure 7, bare-metal counterpart).
func BenchmarkFig7Microbench00(b *testing.B) {
	cl, invokers := benchCluster(b, func(transport.NodeID) bft.Application {
		return workload.EchoApp{}
	}, 8)
	defer cl.Stop()
	gen, err := workload.NewMicrobench(0)
	if err != nil {
		b.Fatal(err)
	}
	runBench(b, invokers, func(int) []byte { return gen.Next() })
}

// BenchmarkFig7Microbench1024 is the 1024/1024 microbenchmark on the real
// library.
func BenchmarkFig7Microbench1024(b *testing.B) {
	cl, invokers := benchCluster(b, func(transport.NodeID) bft.Application {
		return workload.EchoApp{}
	}, 8)
	defer cl.Stop()
	gen, err := workload.NewMicrobench(1024)
	if err != nil {
		b.Fatal(err)
	}
	runBench(b, invokers, func(int) []byte { return gen.Next() })
}

// BenchmarkFig10KVS is the YCSB 50/50 4 kB workload on the replicated KVS
// (paper Figure 10, first group).
func BenchmarkFig10KVS(b *testing.B) {
	cl, invokers := benchCluster(b, func(transport.NodeID) bft.Application {
		return kvs.New()
	}, 8)
	defer cl.Stop()
	gen, err := workload.NewYCSB(workload.YCSBConfig{
		Records: 1000, ReadFraction: 0.5, ValueSize: 4096, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	runBench(b, invokers, func(int) []byte {
		op, _, err := gen.Next()
		if err != nil {
			b.Fatal(err)
		}
		return op
	})
}

// BenchmarkFig10SieveQ is the 1 kB message-queue workload (paper Figure
// 10, second group); messages pass the filtering layers before
// replication.
func BenchmarkFig10SieveQ(b *testing.B) {
	cl, invokers := benchCluster(b, func(transport.NodeID) bft.Application {
		return sieveq.NewQueue()
	}, 8)
	defer cl.Stop()
	sieve := sieveq.DefaultSieve([]string{"bench"}, 2048, 1e9)
	body := make([]byte, 1024)
	runBench(b, invokers, func(i int) []byte {
		op, err := sieve.Admit(&sieveq.Message{
			Sender: "bench",
			Topic:  fmt.Sprintf("t%d", i%4),
			Body:   body,
		})
		if err != nil {
			b.Fatal(err)
		}
		return op
	})
}

// BenchmarkFig10Ordering is the 1 kB transaction / 10-tx block workload on
// the BFT ordering service (paper Figure 10, third group).
func BenchmarkFig10Ordering(b *testing.B) {
	cl, invokers := benchCluster(b, func(transport.NodeID) bft.Application {
		svc, err := ordering.NewService(10)
		if err != nil {
			panic(err)
		}
		return svc
	}, 8)
	defer cl.Stop()
	payload := make([]byte, 1024)
	runBench(b, invokers, func(int) []byte {
		op, err := ordering.SubmitOp(ordering.Transaction{Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
		return op
	})
}

// BenchmarkFig9Reconfiguration measures a full live replacement (boot +
// ADD + state transfer + REMOVE) on the real library (paper Figure 9's
// protocol path).
func BenchmarkFig9Reconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := bfttest.Launch(func(transport.NodeID) bft.Application {
			return kvs.New()
		}, bfttest.Options{N: 4, CheckpointInterval: 8})
		if err != nil {
			b.Fatal(err)
		}
		client, err := cl.Client(0)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := cl.Controller()
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		for k := 0; k < 20; k++ {
			op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: fmt.Sprintf("k%d", k), Value: make([]byte, 512)})
			if _, err := client.Invoke(ctx, op); err != nil {
				b.Fatal(err)
			}
		}
		joiner, err := cl.AddReplica(4, true)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		addOp := bft.EncodeReconfigOp(bft.ReconfigOp{Add: true, Replica: 4, PubKey: cl.PublicKey(4)})
		if _, err := ctrl.Invoke(ctx, addOp); err != nil {
			b.Fatal(err)
		}
		for joiner.Stats().StateTransfers == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		rmOp := bft.EncodeReconfigOp(bft.ReconfigOp{Add: false, Replica: 0})
		if _, err := ctrl.Invoke(ctx, rmOp); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		cancel()
		client.Close()
		ctrl.Close()
		cl.Stop()
		b.StartTimer()
	}
}

// BenchmarkFig5Month runs one Figure 5 month-slot (reduced run count) end
// to end: clustering, table precomputation, and the five strategies.
func BenchmarkFig5Month(b *testing.B) {
	ds, err := feeds.GenerateDataset(feeds.GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e := &riskim.Experiment{
		Dataset:  ds,
		Universe: feeds.Replicas(),
		N:        4, F: 1,
		Runs: 25,
		Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunMonth(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreEq1 measures the Equation 1 score computation.
func BenchmarkScoreEq1(b *testing.B) {
	p := core.DefaultScoreParams()
	v := &Vulnerability{
		ID:        "CVE-2018-8897",
		Published: time.Date(2018, 5, 8, 0, 0, 0, 0, time.UTC),
		CVSS:      7.8,
		PatchedAt: time.Date(2018, 5, 9, 0, 0, 0, 0, time.UTC),
		ExploitAt: time.Date(2018, 5, 13, 0, 0, 0, 0, time.UTC),
	}
	now := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += p.Score(v, now)
	}
	_ = sink
}

// BenchmarkRiskEq5 measures a full Equation 5 evaluation of a 4-replica
// configuration against the study corpus.
func BenchmarkRiskEq5(b *testing.B) {
	ds, err := feeds.GenerateDataset(feeds.GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	asof := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	corpus := ds.PublishedBefore(asof)
	engine, err := NewRiskEngine(corpus, DefaultScoreParams(),
		cluster.Config{K: len(corpus) / 8, MaxVocabulary: 600, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rs := feeds.Replicas()
	cfg := core.Config{rs[0], rs[5], rs[10], rs[15]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Risk(cfg, asof)
	}
}

// BenchmarkClusterBuild measures the clustering stage over the learning
// corpus.
func BenchmarkClusterBuild(b *testing.B) {
	ds, err := feeds.GenerateDataset(feeds.GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	corpus := ds.PublishedBefore(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Build(corpus, cluster.Config{K: 96, MaxVocabulary: 600, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelFig7 and friends regenerate the calibrated-model figures
// (the per-OS virtualization shape the real-library benches cannot see).
func BenchmarkModelFig7(b *testing.B) {
	cm := perfmodel.DefaultCostModel()
	oses := catalog.Deployable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, os := range oses {
			if _, err := perfmodel.HomogeneousThroughput(os, perfmodel.Microbench00, cm); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkModelFig9 regenerates the reconfiguration timeline.
func BenchmarkModelFig9(b *testing.B) {
	cm := perfmodel.DefaultCostModel()
	cfg, err := perfmodel.ConfigByIDs("DE8", "OS42", "FE26", "SO11")
	if err != nil {
		b.Fatal(err)
	}
	joiner, err := catalog.ByID("UB16")
	if err != nil {
		b.Fatal(err)
	}
	tl := perfmodel.DefaultTimeline(cfg, joiner, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := perfmodel.Timeline(tl, cm); err != nil {
			b.Fatal(err)
		}
	}
}
