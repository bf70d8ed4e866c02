// Command quickstart spins up a 4-replica BFT key-value store in-process
// and runs a few operations against it — the smallest possible end-to-end
// use of the replication library.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/bft/bfttest"
	"lazarus/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Lazarus quickstart: 4-replica BFT key-value store ==")
	cluster, err := bfttest.Launch(
		func(transport.NodeID) bft.Application { return kvs.New() },
		bfttest.Options{N: 4},
	)
	if err != nil {
		return err
	}
	defer cluster.Stop()
	fmt.Printf("cluster up: n=%d, f=%d, quorum=%d\n",
		cluster.Membership.N(), cluster.Membership.F(), cluster.Membership.Quorum())

	client, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	put := func(k, v string) error {
		op, err := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: k, Value: []byte(v)})
		if err != nil {
			return err
		}
		res, err := client.Invoke(ctx, op)
		if err != nil {
			return err
		}
		fmt.Printf("PUT %-12s = %-12s -> %s\n", k, v, res)
		return nil
	}
	get := func(k string) error {
		op, err := kvs.EncodeOp(kvs.Op{Kind: kvs.OpGet, Key: k})
		if err != nil {
			return err
		}
		res, err := client.Invoke(ctx, op)
		if err != nil {
			return err
		}
		fmt.Printf("GET %-12s -> %s\n", k, res)
		return nil
	}

	for _, kv := range [][2]string{
		{"paper", "middleware-2019"},
		{"system", "lazarus"},
		{"replicas", "diverse"},
	} {
		if err := put(kv[0], kv[1]); err != nil {
			return err
		}
	}
	if err := get("system"); err != nil {
		return err
	}
	if err := get("missing-key"); err != nil {
		return err
	}

	// Every reply above was vouched for by f+1 replicas; a single
	// Byzantine replica cannot forge a result.
	fmt.Println("done: every write carried f+1 matching replies, every read a quorum")
	return nil
}
