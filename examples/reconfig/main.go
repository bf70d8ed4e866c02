// Command reconfig runs the full Lazarus control loop live: a BFT
// key-value store starts on the lowest-risk diverse replica set, a
// critical shared vulnerability is then published, and the next
// monitoring round swaps the affected replica out through the LTUs and
// the BFT reconfiguration protocol — while the service keeps answering
// and its state survives.
package main

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"log"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/controlplane"
	"lazarus/internal/feeds"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	now := time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }

	fmt.Println("== Lazarus live reconfiguration demo ==")
	ds, err := feeds.GenerateDataset(feeds.GenConfig{
		Seed:  3,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		return err
	}

	net := transport.NewMemory(transport.MemoryConfig{Seed: 1})
	defer net.Close()
	clientPub, clientPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	clientID := transport.ClientIDBase + transport.NodeID(1)

	ctrl, err := controlplane.New(controlplane.Config{
		N:            4,
		Seed:         7,
		Clock:        clock,
		InitialVulns: ds.All(),
		Net:          net,
		App:          func() bft.Application { return kvs.New() },
		ClientKeys:   map[transport.NodeID]ed25519.PublicKey{clientID: clientPub},
		LTUSecret:    []byte("demo-ltu-secret"),
		ReplicaTuning: func(cfg *bft.ReplicaConfig) {
			cfg.CheckpointInterval = 8
			cfg.ViewChangeTimeout = 200 * time.Millisecond
		},
		Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	defer ctrl.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		return err
	}
	st := ctrl.Status()
	fmt.Printf("running CONFIG: %v (risk threshold %.1f)\n", st.Config, st.Threshold)

	// Put some state in.
	client, err := ctrl.ServiceClient(clientID, clientPriv)
	if err != nil {
		return err
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		op, err := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: fmt.Sprintf("key%d", i), Value: []byte(fmt.Sprintf("value%d", i))})
		if err != nil {
			return err
		}
		if _, err := client.Invoke(ctx, op); err != nil {
			return err
		}
	}
	fmt.Println("service preloaded with 5 keys")

	// A critical, already-exploited vulnerability shared by two running
	// OSes hits the feeds.
	osA, err := catalog.ByID(st.Config[0])
	if err != nil {
		return err
	}
	osB, err := catalog.ByID(st.Config[1])
	if err != nil {
		return err
	}
	osC, err := catalog.ByID(st.Config[2])
	if err != nil {
		return err
	}
	bomb := &osint.Vulnerability{
		ID:          "CVE-2018-31337",
		Description: "Remote code execution in the shared packet scheduler allows unauthenticated attackers to gain kernel privileges via crafted traffic.",
		Products:    []string{osA.CPEProduct, osB.CPEProduct, osC.CPEProduct},
		Published:   now.AddDate(0, 0, -1),
		CVSS:        9.8,
		ExploitAt:   now.AddDate(0, 0, -1),
	}
	fmt.Printf("\n!! %s published: CVSS %.1f, exploited, affects %s, %s and %s\n",
		bomb.ID, bomb.CVSS, osA.ID, osB.ID, osC.ID)
	if err := ctrl.RefreshIntel(ctx, bomb); err != nil {
		return err
	}
	now = now.AddDate(0, 0, 1)

	decision, err := ctrl.MonitorRound(ctx)
	if err != nil {
		return err
	}
	if decision.Reconfigured {
		fmt.Printf("\nmonitoring round: risk %.1f -> %.1f, trigger %s\n",
			decision.RiskBefore, decision.RiskAfter, decision.Trigger)
		fmt.Printf("swapped %s out (quarantined) for %s\n", decision.Removed.ID, decision.Added.ID)
	} else {
		fmt.Println("\nmonitoring round: no reconfiguration needed")
	}
	st = ctrl.Status()
	fmt.Printf("new CONFIG: %v, quarantine: %v, membership epoch %d\n",
		st.Config, st.Quarantine, st.Epoch)

	// State survived the swap: the same client keeps its request
	// sequence numbers and simply learns the new replica set, keys
	// included, so the joiner's replies verify and the retired one's do not.
	members := ctrl.Membership()
	client.UpdateMembership(members.Replicas, members.Keys)
	op, err := kvs.EncodeOp(kvs.Op{Kind: kvs.OpGet, Key: "key3"})
	if err != nil {
		return err
	}
	res, err := client.Invoke(ctx, op)
	if err != nil {
		return err
	}
	fmt.Printf("\npost-swap read of key3: %q (state preserved)\n", res)
	return nil
}
