package fleet

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/dataset"
	"dnastore/internal/server"
)

func mkNodes(names ...string) []*node {
	ns := make([]*node, len(names))
	for i, nm := range names {
		ns[i] = &node{name: nm}
		ns[i].healthy.Store(true)
	}
	return ns
}

func TestRankDeterministic(t *testing.T) {
	nodes := mkNodes("n0", "n1", "n2", "n3", "n4")
	for key := uint64(0); key < 64; key++ {
		a, b := rank(nodes, key), rank(nodes, key)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("key %d: rank not deterministic at position %d", key, i)
			}
		}
	}
}

func TestRankSpreadsPrimaries(t *testing.T) {
	nodes := mkNodes("n0", "n1", "n2", "n3", "n4")
	primaries := map[string]int{}
	for key := uint64(0); key < 500; key++ {
		primaries[rank(nodes, key)[0].name]++
	}
	for _, n := range nodes {
		if primaries[n.name] == 0 {
			t.Errorf("node %s is never primary across 500 keys", n.name)
		}
	}
}

// TestRankMinimalDisruption is the property the cache and the journals
// lean on: removing one node must only move the shards that were placed
// on it.
func TestRankMinimalDisruption(t *testing.T) {
	all := mkNodes("n0", "n1", "n2", "n3", "n4")
	without := mkNodes("n0", "n1", "n3", "n4")
	moved := 0
	for key := uint64(0); key < 500; key++ {
		before := rank(all, key)[0].name
		after := rank(without, key)[0].name
		if before == "n2" {
			moved++
			continue
		}
		if after != before {
			t.Fatalf("key %d moved %s -> %s although its node survived", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("n2 owned no keys; the disruption check never triggered")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newResultCache(8)
	var computes, hits atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			data, hit, err := c.do(context.Background(), 42, func() ([]byte, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond)
				return []byte("payload"), nil
			})
			if err != nil || string(data) != "payload" {
				t.Errorf("do: data %q err %v", data, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1 (single flight)", got)
	}
	if got := hits.Load(); got != 15 {
		t.Errorf("hits = %d, want 15 (everyone but the computer)", got)
	}
}

func TestCacheFailureNotCached(t *testing.T) {
	c := newResultCache(8)
	boom := errors.New("boom")
	ctx := context.Background()
	if _, hit, err := c.do(ctx, 7, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("failed compute: hit=%v err=%v, want miss with boom", hit, err)
	}
	if c.len() != 0 {
		t.Fatalf("failure left %d cache entries, want 0", c.len())
	}
	data, hit, err := c.do(ctx, 7, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(data) != "ok" {
		t.Fatalf("retry after failure: data %q hit=%v err=%v, want fresh compute", data, hit, err)
	}
	if _, hit, _ := c.do(ctx, 7, func() ([]byte, error) {
		t.Error("success must be cached, not recomputed")
		return nil, nil
	}); !hit {
		t.Fatal("second success lookup was not a hit")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	ctx := context.Background()
	for key := uint64(1); key <= 3; key++ {
		c.do(ctx, key, func() ([]byte, error) { return []byte{byte(key)}, nil })
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries over capacity 2", c.len())
	}
	// FIFO: key 1 is the evictee and must recompute.
	recomputed := false
	c.do(ctx, 1, func() ([]byte, error) { recomputed = true; return []byte{1}, nil })
	if !recomputed {
		t.Error("evicted key 1 was served from cache")
	}
	if _, hit, _ := c.do(ctx, 3, func() ([]byte, error) { return []byte{3}, nil }); !hit {
		t.Error("recent key 3 was evicted; FIFO should keep it")
	}
}

func TestShardsOfPartition(t *testing.T) {
	spec := server.SimulateSpec{NumRefs: 10, RefLen: 40, Seed: 1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	shards := shardsOf(spec, 4)
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	next := 0
	keys := map[uint64]bool{}
	for i, sh := range shards {
		if sh.index != i || sh.first != next {
			t.Fatalf("shard %d covers [%d,%d), want to start at %d", i, sh.first, sh.first+sh.count, next)
		}
		if f, cnt := sh.spec.ShardRange(); f != sh.first || cnt != sh.count {
			t.Fatalf("shard %d sub-spec range (%d,%d) disagrees with shard (%d,%d)", i, f, cnt, sh.first, sh.count)
		}
		if keys[sh.key] {
			t.Fatalf("shard %d reuses another shard's fingerprint", i)
		}
		keys[sh.key] = true
		next += sh.count
	}
	if next != 10 {
		t.Fatalf("shards cover %d clusters, want 10", next)
	}
	if got := shardsOf(spec, 64); len(got) != 1 || got[0].count != 10 {
		t.Fatalf("oversized shard span: got %d shards", len(got))
	}
}

func TestErasedShardBytesRoundTrip(t *testing.T) {
	spec := server.SimulateSpec{NumRefs: 6, RefLen: 30, Seed: 2}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	refs := spec.References()
	b, err := erasedShardBytes(refs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("erased shard bytes do not parse: %v", err)
	}
	if ds.NumClusters() != 3 || ds.Erasures() != 3 {
		t.Fatalf("got %d clusters / %d erasures, want 3/3", ds.NumClusters(), ds.Erasures())
	}
	for i, cl := range ds.Clusters {
		if cl.Ref != refs[2+i] {
			t.Errorf("cluster %d carries ref %q, want %q", i, cl.Ref, refs[2+i])
		}
	}
}

// deadNodeURL returns a URL nothing listens on (refused, instantly).
func deadNodeURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

func TestDegradedCompletion(t *testing.T) {
	spec := server.SimulateSpec{NumRefs: 8, RefLen: 40, Seed: 3, Coverage: 2}
	dead := deadNodeURL(t)
	newCoord := func(allowPartial bool) *Coordinator {
		c, err := New(Config{
			Nodes:            []NodeConfig{{Name: "dead", BaseURL: dead}},
			ShardClusters:    4,
			MaxShardAttempts: 2,
			AllowPartial:     allowPartial,
			ProbeInterval:    -1,
			Client: client.Config{
				MaxAttempts: 1, BaseBackoff: time.Millisecond,
				MaxBackoff: 2 * time.Millisecond, PerCallTimeout: time.Second, Seed: 9,
			},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(c.Close)
		return c
	}

	c := newCoord(true)
	data, rep, err := c.Simulate(context.Background(), spec)
	if err != nil {
		t.Fatalf("degraded completion should deliver a partial dataset, got %v", err)
	}
	ds, err := dataset.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("partial dataset does not parse: %v", err)
	}
	if ds.NumClusters() != 8 || ds.Erasures() != 8 {
		t.Errorf("partial dataset: %d clusters / %d erasures, want 8/8", ds.NumClusters(), ds.Erasures())
	}
	if rep.Erased != 2 || len(rep.Shards) != 2 {
		t.Errorf("report: erased %d of %d shards, want 2 of 2", rep.Erased, len(rep.Shards))
	}
	for _, st := range rep.Shards {
		if !st.Erased || st.Error == "" {
			t.Errorf("shard %d: erased=%v error=%q, want an explicit erasure with its cause", st.Index, st.Erased, st.Error)
		}
	}
	if got := c.Registry().Snapshot()["dnasimd_fleet_shards_erased_total"]; got != 2 {
		t.Errorf("shards_erased_total = %v, want 2", got)
	}

	c2 := newCoord(false)
	_, _, err = c2.Simulate(context.Background(), spec)
	var ee *ErasureError
	if !errors.As(err, &ee) {
		t.Fatalf("strict mode returned %v, want *ErasureError", err)
	}
	if len(ee.Erased) != 2 {
		t.Fatalf("ErasureError lists %d shards, want 2", len(ee.Erased))
	}
}

func TestSimulateRejectsShardedSpec(t *testing.T) {
	c, err := New(Config{
		Nodes:         []NodeConfig{{Name: "x", BaseURL: "http://127.0.0.1:1"}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := server.SimulateSpec{NumRefs: 8, RefLen: 40, Seed: 1, ClusterCount: 4}
	if _, _, err := c.Simulate(context.Background(), spec); err == nil {
		t.Fatal("pre-sharded spec accepted; the coordinator owns the split")
	}
	js := server.JobSpec{Kind: server.KindSimulate, Simulate: &spec}
	if _, _, err := c.SubmitIdempotent("", js); err == nil {
		t.Fatal("facade accepted a pre-sharded spec")
	}
}

func TestPickNodePrefersUntriedEligible(t *testing.T) {
	nodes := mkNodes("a", "b", "c")
	for _, n := range nodes {
		n.brk = server.NewBreaker(3, time.Minute)
	}
	ranked := rank(nodes, 1234)
	tried := map[string]int{}
	first := pickNode(ranked, tried, 0)
	if first != ranked[0] {
		t.Fatalf("fresh shard placed on %s, want top-ranked %s", first.name, ranked[0].name)
	}
	tried[first.name]++
	second := pickNode(ranked, tried, 1)
	if second != ranked[1] {
		t.Fatalf("retry placed on %s, want next-ranked %s", second.name, ranked[1].name)
	}
	// Mark everyone unhealthy: a placement must still come back.
	for _, n := range nodes {
		n.healthy.Store(false)
	}
	tried[second.name]++
	if pickNode(ranked, tried, 2) == nil {
		t.Fatal("pickNode refused to place with all nodes ineligible")
	}
}
