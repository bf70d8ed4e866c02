package controlplane

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/feeds"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// testController builds a controller over a small corpus and an in-memory
// execution plane running the KVS.
func testController(t *testing.T, vulns []*osint.Vulnerability, clock func() time.Time) (*Controller, *transport.Memory, ed25519.PrivateKey) {
	t.Helper()
	net := transport.NewMemory(transport.MemoryConfig{Seed: 1})
	clientPub, clientPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clientID := transport.ClientIDBase + transport.NodeID(1)
	ctrl, err := New(Config{
		N:            4,
		Seed:         7,
		Clock:        clock,
		InitialVulns: vulns,
		Net:          net,
		App:          func() bft.Application { return kvs.New() },
		ClientKeys:   map[transport.NodeID]ed25519.PublicKey{clientID: clientPub},
		LTUSecret:    []byte("test-ltu-secret"),
		ReplicaTuning: func(cfg *bft.ReplicaConfig) {
			cfg.CheckpointInterval = 8
			cfg.ViewChangeTimeout = 200 * time.Millisecond
			cfg.BatchDelay = time.Millisecond
		},
		CatchUpTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctrl.Stop()
		net.Close()
	})
	return ctrl, net, clientPriv
}

// smallCorpus: enough history for clustering, plus a pair of shared vulns
// that can be published "later" to force a reconfiguration.
func smallCorpus(t *testing.T) []*osint.Vulnerability {
	t.Helper()
	ds, err := feeds.GenerateDataset(feeds.GenConfig{
		Seed:  3,
		Start: day(2017, 1, 1),
		End:   day(2018, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.All()
}

func TestBootstrapRunsService(t *testing.T) {
	now := day(2018, 1, 15)
	ctrl, _, clientPriv := testController(t, smallCorpus(t), func() time.Time { return now })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	st := ctrl.Status()
	if len(st.Config) != 4 {
		t.Fatalf("config = %v", st.Config)
	}
	if len(st.Pool) != 13 {
		t.Fatalf("pool = %d OSes, want 13 (17 deployable - 4 running)", len(st.Pool))
	}
	// The service works end to end through the provisioned replicas.
	cl, err := ctrl.ServiceClient(transport.ClientIDBase+1, clientPriv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: "hello", Value: []byte("world")})
	res, err := cl.Invoke(ctx, op)
	if err != nil {
		t.Fatalf("service invoke: %v", err)
	}
	if string(res) != "OK" {
		t.Fatalf("put = %q", res)
	}
}

func TestMonitorRoundNoTriggerLeavesConfig(t *testing.T) {
	now := day(2018, 1, 15)
	ctrl, _, _ := testController(t, smallCorpus(t), func() time.Time { return now })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	before := ctrl.Status().Config
	d, err := ctrl.MonitorRound(ctx)
	if err != nil {
		t.Fatalf("MonitorRound: %v", err)
	}
	if d.Reconfigured {
		t.Fatalf("reconfigured with unchanged intel: %+v", d)
	}
	after := ctrl.Status().Config
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("config changed without a decision")
		}
	}
}

// TestCriticalCVETriggersLiveReplacement is the flagship integration test:
// a fresh critical vulnerability shared by two running OSes arrives in the
// feed; the next monitoring round must replace a replica through the LTUs
// and the BFT reconfiguration protocol without losing service state.
func TestCriticalCVETriggersLiveReplacement(t *testing.T) {
	now := day(2018, 1, 15)
	clock := func() time.Time { return now }
	ctrl, _, clientPriv := testController(t, smallCorpus(t), clock)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	cl, err := ctrl.ServiceClient(transport.ClientIDBase+1, clientPriv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)}})
		if _, err := cl.Invoke(ctx, op); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}

	// A critical exploited vulnerability shared by the two first running
	// OSes is published today.
	st := ctrl.Status()
	osA, err := catalog.ByID(st.Config[0])
	if err != nil {
		t.Fatal(err)
	}
	osB, err := catalog.ByID(st.Config[1])
	if err != nil {
		t.Fatal(err)
	}
	osC, err := catalog.ByID(st.Config[2])
	if err != nil {
		t.Fatal(err)
	}
	// Three affected replicas -> three risky pairs, comfortably above the
	// adaptive threshold margin.
	bomb := &osint.Vulnerability{
		ID:          "CVE-2018-99001",
		Description: "Remote code execution in the shared virtio network driver allows full host compromise via crafted descriptors.",
		Products:    []string{osA.CPEProduct, osB.CPEProduct, osC.CPEProduct},
		Published:   now.AddDate(0, 0, -1),
		CVSS:        9.8,
		ExploitAt:   now.AddDate(0, 0, -1),
	}
	if err := ctrl.RefreshIntel(ctx, bomb); err != nil {
		t.Fatal(err)
	}
	now = now.AddDate(0, 0, 1)

	d, err := ctrl.MonitorRound(ctx)
	if err != nil {
		t.Fatalf("MonitorRound: %v", err)
	}
	if !d.Reconfigured {
		t.Fatalf("critical shared CVE did not trigger reconfiguration (risk %.1f, threshold %.1f)",
			d.RiskBefore, ctrl.Status().Threshold)
	}
	if d.Removed.ID != osA.ID && d.Removed.ID != osB.ID && d.Removed.ID != osC.ID {
		t.Errorf("removed %s, want one of the affected trio %s/%s/%s", d.Removed.ID, osA.ID, osB.ID, osC.ID)
	}

	after := ctrl.Status()
	if len(after.Config) != 4 {
		t.Fatalf("post-swap config = %v", after.Config)
	}
	if len(after.Quarantine) != 1 || after.Quarantine[0] != d.Removed.ID {
		t.Errorf("quarantine = %v, want [%s]", after.Quarantine, d.Removed.ID)
	}
	if after.Epoch != 2 {
		t.Errorf("membership epoch = %d, want 2 (one add + one remove)", after.Epoch)
	}

	// Service state survived the live replacement, and writes still work
	// against the new membership. The same client continues (client
	// sequence numbers must not reset) with an updated replica set.
	members := ctrl.Membership()
	cl.UpdateMembership(members.Replicas, members.Keys)
	getOp, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpGet, Key: "k3"})
	res, err := cl.Invoke(ctx, getOp)
	if err != nil {
		t.Fatalf("post-swap read: %v", err)
	}
	if string(res) != "VAL\x03" {
		t.Fatalf("post-swap read = %q, state lost", res)
	}
	putOp, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: "post", Value: []byte("swap")})
	if _, err := cl.Invoke(ctx, putOp); err != nil {
		t.Fatalf("post-swap write: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	base := Config{
		Net:       net,
		App:       func() bft.Application { return kvs.New() },
		LTUSecret: []byte("s"),
	}
	bad := base
	bad.N = 99
	if _, err := New(bad); err == nil {
		t.Error("n > universe accepted")
	}
	noApp := base
	noApp.App = nil
	if _, err := New(noApp); err == nil {
		t.Error("nil app accepted")
	}
	noSecret := base
	noSecret.LTUSecret = nil
	if _, err := New(noSecret); err == nil {
		t.Error("empty LTU secret accepted")
	}
}

func TestMonitorRoundBeforeBootstrap(t *testing.T) {
	ctrl, _, _ := testController(t, smallCorpus(t), func() time.Time { return day(2018, 1, 15) })
	if _, err := ctrl.MonitorRound(context.Background()); err == nil {
		t.Error("MonitorRound before Bootstrap accepted")
	}
}

func TestRefreshIntelRequiresData(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	ctrl, err := New(Config{
		Net:       net,
		App:       func() bft.Application { return kvs.New() },
		LTUSecret: []byte("s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RefreshIntel(context.Background()); err == nil {
		t.Error("refresh with no data accepted")
	}
}

// TestRefreshIntelViaCrawler exercises the full data plane: the dataset is
// materialized as NVD/ExploitDB/advisory fixtures, served over HTTP,
// crawled, and assembled into the controller's knowledge base.
func TestRefreshIntelViaCrawler(t *testing.T) {
	ds, err := feeds.GenerateDataset(feeds.GenConfig{
		Seed:  5,
		Start: day(2017, 1, 1),
		End:   day(2017, 12, 31),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ds.WriteFixtures(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer srv.Close()

	crawler, err := osint.NewCrawler(osint.CrawlerConfig{
		NVDFeedURLs: []string{srv.URL + "/nvdcve-1.1-2017.json"},
		Sources: []osint.FeedSpec{
			{URL: srv.URL + "/files_exploits.csv", Parser: osint.ExploitDBParser{}},
			{URL: srv.URL + "/cvedetails.html", Parser: osint.CVEDetailsParser{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemory(transport.MemoryConfig{Seed: 1})
	defer net.Close()
	ctrl, err := New(Config{
		Net:       net,
		App:       func() bft.Application { return kvs.New() },
		LTUSecret: []byte("s"),
		Crawler:   crawler,
		Clock:     func() time.Time { return day(2018, 1, 15) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	if err := ctrl.RefreshIntel(context.Background()); err != nil {
		t.Fatalf("crawl-backed refresh: %v", err)
	}
	// The crawled knowledge base must support bootstrapping.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatalf("bootstrap on crawled intel: %v", err)
	}
	if len(ctrl.Status().Config) != 4 {
		t.Fatalf("config = %v", ctrl.Status().Config)
	}
}
