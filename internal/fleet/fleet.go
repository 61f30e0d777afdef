// Package fleet is the multi-node coordinator for dnasimd: it splits one
// simulation spec into cluster-range shards, places each shard on a worker
// node by rendezvous hashing, and merges the shard outputs into a dataset
// byte-identical to a single-node run of the same spec.
//
// The merge is correct by construction, not by coordination: every
// cluster's reads derive only from (seed, global cluster index) — the
// split-RNG scheme of internal/channel — and the dataset text format
// serialises clusters independently, so concatenating shard outputs in
// range order is the whole merge.
//
// Robustness is layered the same way the single-node server layers it:
//
//   - Placement: rendezvous (highest-random-weight) hashing, so the shard
//     map is deterministic, stateless, and minimally disturbed when a
//     node dies — only the dead node's shards move.
//   - Node health: a /readyz probe loop plus a per-node circuit breaker;
//     shards are placed only on nodes both signals trust.
//   - Failure handling: failed shards retry on the next-ranked survivor.
//     Workers sharing a data directory journal per-shard checkpoints
//     under the shard-spec fingerprint, so a re-placed shard resumes the
//     dead node's progress instead of recomputing it.
//   - Hedging (opt-in): a straggling shard fires a backup request on the
//     next-ranked node; first result wins.
//   - Degraded completion (opt-in): when every placement of a shard
//     fails, the merge fills the range with zero-read erasure clusters
//     and reports exactly which shards were lost.
//   - Caching: shard results are content-addressed by shard-spec
//     fingerprint with single-flight dedupe, so duplicate submissions
//     cost one simulation.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/server"
)

// Config parameterises a Coordinator. Nodes is required; everything else
// has a production-shaped default.
type Config struct {
	// Nodes are the worker dnasimd instances. At least one is required.
	Nodes []NodeConfig
	// ShardClusters is the target cluster count per shard (default 64).
	// The last shard of a spec may be shorter.
	ShardClusters int
	// MaxShardAttempts bounds how many placements one shard gets before
	// it is abandoned (default 2·len(Nodes), at least 3).
	MaxShardAttempts int
	// HedgeAfter, when positive, fires a backup request for a shard still
	// running after this long on its placed node. First result wins.
	HedgeAfter time.Duration
	// AllowPartial turns total shard failure into degraded completion:
	// the merged dataset carries zero-read erasure clusters for lost
	// shards and the report says which. When false, a lost shard fails
	// the whole job.
	AllowPartial bool
	// CacheCapacity bounds the shard result cache (default 256 entries).
	CacheCapacity int
	// DataDir, when set, makes the coordinator crash-consistent: every
	// accepted job is journaled to a write-ahead ledger under
	// DataDir/ledger before the client sees 202, completed shard results
	// spill to durable containers under DataDir/spill, and a restart
	// replays the ledger — re-adopting in-flight jobs under their old IDs
	// and Idempotency-Keys — before serving. Empty disables durability:
	// the coordinator is then exactly as forgetful as before.
	DataDir string
	// SpillBytes bounds the on-disk spill store (default 256 MiB); the
	// FIFO garbage collector evicts oldest entries beyond it.
	SpillBytes int64
	// DrainGrace bounds how long Drain waits for in-flight jobs to finish
	// or park before sealing the ledger (default 10s).
	DrainGrace time.Duration
	// ProbeInterval is the /readyz health-probe cadence (default 1s;
	// negative disables probing — breakers alone then gate placement).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange (default 2s).
	ProbeTimeout time.Duration
	// BreakerThreshold and BreakerCooldown configure each node's circuit
	// breaker (defaults 3 failures, 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Client is the template for per-node clients; BaseURL is overridden
	// per node. The zero value gets the client package's defaults.
	Client client.Config
	// Logger receives structured coordinator logs (default: discard).
	Logger *slog.Logger
}

// Coordinator drives a fleet of worker dnasimd nodes. It embeds the same
// jobs front-end a single dnasimd instance serves (HTTP API, job table,
// idempotency, drain), so clients (and dnaload) target a coordinator
// unchanged; the coordinator is the executor behind it.
type Coordinator struct {
	*server.Server

	cfg     Config
	nodes   []*node
	cache   *resultCache
	ledger  *ledgerStore
	spill   *spillStore
	metrics *fleetMetrics
	slog    *slog.Logger
	mux     *http.ServeMux

	mu      sync.Mutex
	closed  bool
	stop    chan struct{}
	probeWG sync.WaitGroup
	jobWG   sync.WaitGroup
}

// New returns a Coordinator over cfg.Nodes with its probe loop running.
// With a DataDir it replays the write-ahead ledger before returning.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: no nodes configured")
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for _, nc := range cfg.Nodes {
		if nc.Name == "" || nc.BaseURL == "" {
			return nil, fmt.Errorf("fleet: node needs name and base URL, got %+v", nc)
		}
		if seen[nc.Name] {
			return nil, fmt.Errorf("fleet: duplicate node name %q", nc.Name)
		}
		seen[nc.Name] = true
	}
	if cfg.ShardClusters <= 0 {
		cfg.ShardClusters = 64
	}
	if cfg.MaxShardAttempts <= 0 {
		cfg.MaxShardAttempts = 2 * len(cfg.Nodes)
		if cfg.MaxShardAttempts < 3 {
			cfg.MaxShardAttempts = 3
		}
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 10 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	c := &Coordinator{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheCapacity),
		slog:  cfg.Logger,
		stop:  make(chan struct{}),
	}
	if cfg.DataDir != "" {
		var err error
		if c.ledger, err = openLedgerStore(filepath.Join(cfg.DataDir, "ledger"), c.slog); err != nil {
			return nil, err
		}
		if c.spill, err = openSpillStore(filepath.Join(cfg.DataDir, "spill"), cfg.SpillBytes, c.slog); err != nil {
			return nil, err
		}
		c.cache.spill = c.spill
	}
	for _, nc := range cfg.Nodes {
		ccfg := cfg.Client
		ccfg.BaseURL = nc.BaseURL
		n := &node{
			name: nc.Name,
			cli:  client.New(ccfg),
			brk:  server.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
		n.healthy.Store(true)
		c.nodes = append(c.nodes, n)
	}
	c.Server = server.NewFrontEnd(server.Config{
		DrainGrace: cfg.DrainGrace,
		Logger:     cfg.Logger,
	}, "f", executor{c})
	c.metrics = newFleetMetrics(c, c.Registry())
	c.cache.evictions = c.metrics.evictions
	if c.spill != nil {
		c.spill.hits = c.metrics.spillHits
		c.spill.writes = c.metrics.spillWrites
		c.spill.gc = c.metrics.spillGC
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET /v1/jobs/{id}/report", c.handleReport)
	c.mux.Handle("/", c.Server)
	if c.ledger != nil {
		// Replay the write-ahead ledger before serving: restore every
		// journaled job (terminal jobs with their verdicts, in-flight and
		// completed-but-unfetched jobs by re-adoption) under its old ID and
		// Idempotency-Key, so a client that was mid-poll when the old
		// process died finds its job answering again, never a permanent
		// 404.
		c.recover()
	}
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// ServeHTTP serves the shared jobs API plus the coordinator-only
// GET /v1/jobs/{id}/report.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Close stops the probe loop. In-flight jobs keep running. For a full
// shutdown that parks in-flight work for a restart, use Drain.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	c.mu.Unlock()
	c.probeWG.Wait()
}

// probeLoop refreshes every node's health on a fixed cadence. Probes run
// concurrently so one blackholed node's timeout cannot delay the verdict
// on the others.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			var wg sync.WaitGroup
			for _, n := range c.nodes {
				wg.Add(1)
				go func(n *node) {
					defer wg.Done()
					was := n.healthy.Load()
					n.probe(context.Background(), c.cfg.ProbeTimeout)
					if now := n.healthy.Load(); now != was {
						c.slog.Warn("node health changed", "node", n.name, "healthy", now)
					}
				}(n)
			}
			wg.Wait()
		}
	}
}

// shard is one cluster-range slice of a spec.
type shard struct {
	index        int
	first, count int
	spec         server.SimulateSpec
	// key is the shard spec's fingerprint: the cache address, the
	// placement key, and (server-side) the checkpoint journal name.
	key uint64
}

// shardsOf splits a validated spec into cluster-range shards of at most
// per clusters each.
func shardsOf(spec server.SimulateSpec, per int) []shard {
	total := spec.NumClusters()
	shards := make([]shard, 0, (total+per-1)/per)
	for first := 0; first < total; first += per {
		count := per
		if first+count > total {
			count = total - first
		}
		sub := spec
		sub.ClusterFirst = first
		sub.ClusterCount = count
		shards = append(shards, shard{
			index: len(shards), first: first, count: count,
			spec: sub, key: sub.Fingerprint(),
		})
	}
	return shards
}

// ShardStatus reports how one shard fared.
type ShardStatus struct {
	Index int `json:"index"`
	First int `json:"first"`
	Count int `json:"count"`
	// Node is the worker that produced the shard ("" for a cache hit or
	// an erased shard).
	Node string `json:"node,omitempty"`
	// Attempts counts placements tried (0 for a cache hit).
	Attempts int `json:"attempts,omitempty"`
	// CacheHit: served by the content-addressed cache (finished entry or
	// someone else's in-flight computation).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Resumed: the producing node reported the shard's checkpoint journal
	// in its /drainz inventory before running it — the re-placement was a
	// handoff resume, not a recompute.
	Resumed bool `json:"resumed,omitempty"`
	// Hedged: a backup request was fired for this shard.
	Hedged bool `json:"hedged,omitempty"`
	// Erased: every placement failed and the range was filled with
	// zero-read erasure clusters (AllowPartial mode).
	Erased bool   `json:"erased,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Report is the per-shard account of one fleet simulation.
type Report struct {
	TotalClusters int           `json:"total_clusters"`
	Shards        []ShardStatus `json:"shards"`
	CacheHits     int           `json:"cache_hits"`
	Erased        int           `json:"erased"`
}

// ErasureError is returned when shards were lost and AllowPartial is off.
type ErasureError struct {
	// Erased lists the lost shards.
	Erased []ShardStatus
}

func (e *ErasureError) Error() string {
	return fmt.Sprintf("fleet: %d shard(s) lost after exhausting placements (first: shard %d, clusters [%d,%d): %s)",
		len(e.Erased), e.Erased[0].Index, e.Erased[0].First,
		e.Erased[0].First+e.Erased[0].Count, e.Erased[0].Error)
}

// Simulate runs one simulation spec across the fleet and returns the
// merged dataset bytes — byte-identical to a single-node run — plus the
// per-shard report. The spec must be unsharded; the coordinator owns the
// split.
func (c *Coordinator) Simulate(ctx context.Context, spec server.SimulateSpec) ([]byte, Report, error) {
	return c.simulateJob(ctx, spec, nil)
}

// simulateJob is Simulate with the job's write-ahead ledger attached (nil
// for direct callers): shard state transitions are journaled as they
// happen, so a post-crash operator can read exactly how far a job got.
func (c *Coordinator) simulateJob(ctx context.Context, spec server.SimulateSpec, led *jobLedger) ([]byte, Report, error) {
	if spec.ClusterFirst != 0 || spec.ClusterCount != 0 {
		return nil, Report{}, errors.New("fleet: spec already carries a cluster range; the coordinator owns the split")
	}
	// Validate applies defaults (coverage, models) in place. Sharding must
	// happen after that, so the shard fingerprints the coordinator uses
	// for caching and placement equal the fingerprints the workers derive
	// after their own validation — that equality is what names one shared
	// checkpoint journal per shard.
	if err := spec.Validate(); err != nil {
		return nil, Report{}, fmt.Errorf("fleet: %w", err)
	}
	shards := shardsOf(spec, c.cfg.ShardClusters)
	rep := Report{TotalClusters: spec.NumClusters(), Shards: make([]ShardStatus, len(shards))}
	results := make([][]byte, len(shards))

	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], rep.Shards[i] = c.runShard(ctx, shards[i], led)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, rep, err
	}

	// Merge in range order. Lost shards become explicit erasures (every
	// cluster present, zero reads) or fail the job, per AllowPartial.
	var erased []ShardStatus
	var refs []dna.Strand
	for i := range shards {
		st := &rep.Shards[i]
		if st.CacheHit {
			rep.CacheHits++
		}
		if results[i] == nil {
			st.Erased = true
			rep.Erased++
			c.metrics.shardsErased.Inc()
			led.shardEvent(ledgerShardEvent{Index: i, Event: "erased", Error: st.Error})
			erased = append(erased, *st)
			if refs == nil {
				refs = spec.References()
			}
			var err error
			if results[i], err = erasedShardBytes(refs, shards[i].first, shards[i].count); err != nil {
				return nil, rep, fmt.Errorf("fleet: erased shard %d: %w", i, err)
			}
			continue
		}
		c.metrics.shardsDone.Inc()
	}
	if len(erased) > 0 {
		c.slog.Warn("degraded completion", "erased_shards", len(erased), "total_shards", len(shards))
		if !c.cfg.AllowPartial {
			return nil, rep, &ErasureError{Erased: erased}
		}
	}
	// One exact-size copy: Join sizes its result to the sum of the shards.
	return bytes.Join(results, nil), rep, nil
}

// erasedShardBytes renders the cluster range [first, first+count) as
// zero-read erasure clusters — the dataset representation of "this strand
// was lost entirely", which keeps the merged dataset structurally complete
// (cluster i still answers for reference i) while making the loss visible
// to every downstream consumer.
func erasedShardBytes(refs []dna.Strand, first, count int) ([]byte, error) {
	ds := &dataset.Dataset{Clusters: make([]dataset.Cluster, count)}
	for i := 0; i < count; i++ {
		ds.Clusters[i] = dataset.Cluster{Ref: refs[first+i]}
	}
	return ds.AppendText(nil)
}

// runShard produces one shard's bytes through the cache.
func (c *Coordinator) runShard(ctx context.Context, sh shard, led *jobLedger) ([]byte, ShardStatus) {
	st := ShardStatus{Index: sh.index, First: sh.first, Count: sh.count}
	data, hit, err := c.cache.do(ctx, sh.key, func() ([]byte, error) {
		c.metrics.cacheMisses.Inc()
		return c.computeShard(ctx, sh, &st, led)
	})
	if hit {
		c.metrics.cacheHits.Inc()
		st.CacheHit = true
		led.shardEvent(ledgerShardEvent{Index: sh.index, Event: "cache", Key: fmt.Sprintf("%016x", sh.key)})
	}
	if err != nil {
		st.Error = err.Error()
		return nil, st
	}
	return data, st
}

// computeShard places a shard and drives it to bytes: ranked placement,
// per-attempt hedging, and re-placement on the next-ranked survivor after
// a failure, up to MaxShardAttempts placements.
func (c *Coordinator) computeShard(ctx context.Context, sh shard, st *ShardStatus, led *jobLedger) ([]byte, error) {
	ranked := rank(c.nodes, sh.key)
	tried := make(map[string]int, len(ranked))
	shardKey := fmt.Sprintf("%016x", sh.key)
	var prev *node
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxShardAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		primary := pickNode(ranked, tried, attempt)
		tried[primary.name]++
		st.Attempts++
		if prev != nil && primary != prev {
			// The shard moved to a different node: a re-placement. On a
			// shared data directory the new node resumes the old node's
			// fingerprint-named journal; /drainz tells us whether that
			// handoff is actually available.
			c.metrics.replacements.Inc()
			if c.shardJournalVisible(ctx, primary, sh) {
				st.Resumed = true
				led.shardEvent(ledgerShardEvent{Index: sh.index, Event: "resumed", Node: primary.name, Key: shardKey})
			}
			c.slog.Warn("shard re-placed", "shard", sh.index, "from", prev.name,
				"to", primary.name, "resumable", st.Resumed, "cause", lastErr)
		}
		prev = primary
		led.shardEvent(ledgerShardEvent{Index: sh.index, Event: "placed", Node: primary.name, Key: shardKey})
		backup := pickBackup(ranked, primary)
		data, winner, err := c.attempt(ctx, primary, backup, sh, st)
		if err == nil {
			st.Node = winner.name
			led.shardEvent(ledgerShardEvent{Index: sh.index, Event: "done", Node: winner.name, Key: shardKey})
			return data, nil
		}
		lastErr = err
		led.shardEvent(ledgerShardEvent{Index: sh.index, Event: "failed", Node: primary.name, Key: shardKey, Error: err.Error()})
	}
	return nil, fmt.Errorf("fleet: shard %d gave up after %d placement(s): %w", sh.index, st.Attempts, lastErr)
}

// pickNode selects the next placement for a shard: the highest-ranked
// eligible node it has not tried, then the least-tried eligible node, then
// an untried node regardless of health (probes can be stale), and as a
// last resort round-robin through the ranking — a placement is always
// returned, because refusing to try is the one behavior that guarantees
// shard loss.
func pickNode(ranked []*node, tried map[string]int, attempt int) *node {
	for _, n := range ranked {
		if n.eligible() && tried[n.name] == 0 {
			return n
		}
	}
	var best *node
	for _, n := range ranked {
		if n.eligible() && (best == nil || tried[n.name] < tried[best.name]) {
			best = n
		}
	}
	if best != nil {
		return best
	}
	for _, n := range ranked {
		if tried[n.name] == 0 {
			return n
		}
	}
	return ranked[attempt%len(ranked)]
}

// pickBackup returns the hedge target: the highest-ranked eligible node
// other than the primary, nil when the fleet has no second opinion.
func pickBackup(ranked []*node, primary *node) *node {
	for _, n := range ranked {
		if n != primary && n.eligible() {
			return n
		}
	}
	return nil
}

// shardJournalVisible asks a node's /drainz whether the shard's
// fingerprint-named checkpoint journal is in its data directory — the
// signal that a re-placed shard will resume instead of recompute.
func (c *Coordinator) shardJournalVisible(ctx context.Context, n *node, sh shard) bool {
	dctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	dz, err := n.cli.Drainz(dctx)
	if err != nil {
		return false
	}
	want := fmt.Sprintf("%016x", sh.key)
	for _, j := range dz.Journals {
		if j.Fingerprint == want {
			return true
		}
	}
	return false
}

// attempt runs one placement, optionally hedged: the primary call starts
// immediately; if HedgeAfter elapses with no result and a backup node
// exists, a backup call races it. First success wins and cancels the
// loser. Hedging is safe because shard output is deterministic — both
// copies would produce identical bytes — and cheap to reason about
// because the cache has already deduplicated concurrent callers.
func (c *Coordinator) attempt(ctx context.Context, primary, backup *node, sh shard, st *ShardStatus) ([]byte, *node, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		data []byte
		err  error
		n    *node
	}
	ch := make(chan outcome, 2) // buffered: a losing call must never block on delivery
	launch := func(n *node) {
		go func() {
			data, err := c.callNode(actx, n, sh)
			ch <- outcome{data: data, err: err, n: n}
		}()
	}
	launch(primary)
	inflight := 1
	var hedge <-chan time.Time
	if c.cfg.HedgeAfter > 0 && backup != nil {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var lastErr error
	for inflight > 0 {
		select {
		case out := <-ch:
			inflight--
			if out.err == nil {
				return out.data, out.n, nil
			}
			lastErr = out.err
		case <-hedge:
			hedge = nil
			c.metrics.hedgesFired.Inc()
			st.Hedged = true
			c.slog.Info("hedge fired", "shard", sh.index, "primary", primary.name, "backup", backup.name)
			launch(backup)
			inflight++
		case <-ctx.Done():
			// Drain nothing: the calls hold actx (canceled via defer) and
			// the channel is buffered, so they settle without us.
			return nil, nil, ctx.Err()
		}
	}
	return nil, nil, lastErr
}

// callNode runs one shard job on one node under that node's breaker. A
// failure caused by our own context — job canceled, hedge lost — is
// shielded from the breaker: the node did nothing wrong, and counting it
// would let a burst of client cancels blackball a healthy node.
func (c *Coordinator) callNode(ctx context.Context, n *node, sh shard) ([]byte, error) {
	var data []byte
	var ctxErr error
	spec := sh.spec
	err := n.brk.Do(func() error {
		res := n.cli.Run(ctx, server.JobSpec{Kind: server.KindSimulate, Simulate: &spec})
		switch {
		case res.Outcome == client.OutcomeSucceeded:
			data = res.Data
			return nil
		case ctx.Err() != nil:
			ctxErr = ctx.Err()
			return nil
		default:
			return fmt.Errorf("fleet: shard %d on %s settled %s: %w", sh.index, n.name, res.Outcome, res.Err)
		}
	})
	switch {
	case err != nil:
		return nil, err
	case ctxErr != nil:
		return nil, ctxErr
	}
	return data, nil
}
