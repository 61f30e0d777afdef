package fleet

import (
	"context"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/rng"
	"dnastore/internal/server"
)

// NodeConfig names one worker dnasimd instance.
type NodeConfig struct {
	// Name is the node's stable identity. Placement hashes the name, not
	// the URL, so a node can move addresses (restart, failover proxy)
	// without reshuffling every shard in the fleet.
	Name string
	// BaseURL is the node's API root (or its chaos proxy in drills).
	BaseURL string
}

// node is the coordinator's view of one worker: a resilient client, a
// per-node circuit breaker, and the latest health-probe verdict.
//
// The two health signals fail on different timescales and cover different
// faults. The breaker trips on consecutive shard failures — it notices a
// node that accepts connections but cannot finish work. The /readyz probe
// notices a node that stopped admitting (draining, dead, blackholed)
// before any shard is risked on it. A node is placed only when both agree.
type node struct {
	name string
	cli  *client.Client
	brk  *server.Breaker

	// healthy is the latest probe verdict. Nodes start healthy: the fleet
	// would otherwise refuse all work until the first probe tick, and a
	// wrong optimistic start costs one breaker-counted failure.
	healthy atomic.Bool
}

// eligible reports whether the node should receive new shards.
func (n *node) eligible() bool {
	return n.healthy.Load() && n.brk.State() != server.BreakerOpen
}

// probe refreshes the node's health from one /readyz exchange.
func (n *node) probe(ctx context.Context, timeout time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	n.healthy.Store(n.cli.Ready(pctx) == nil)
}

// fnv64 hashes a string with FNV-1a.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// rank orders nodes for a shard key by rendezvous (highest-random-weight)
// hashing: every (node, key) pair gets an independent score, and the
// ranking is the descending score order. The properties the fleet leans
// on: placement is deterministic given the node set (no state to sync),
// and removing a node only re-places the shards that were on it — every
// other shard keeps its position in the ranking, which is what keeps a
// node death from invalidating the content-addressed cache of survivors.
func rank(nodes []*node, key uint64) []*node {
	type scored struct {
		n *node
		s uint64
	}
	sc := make([]scored, len(nodes))
	for i, n := range nodes {
		// A full-avalanche mix, so one shard moving between nodes never
		// correlates with another's placement.
		sc[i] = scored{n: n, s: rng.Mix64((fnv64(n.name) ^ key) + 0x9e3779b97f4a7c15)}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].s != sc[j].s {
			return sc[i].s > sc[j].s
		}
		return sc[i].n.name < sc[j].n.name
	})
	out := make([]*node, len(sc))
	for i, s := range sc {
		out[i] = s.n
	}
	return out
}
