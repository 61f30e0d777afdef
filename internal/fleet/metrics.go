package fleet

import "dnastore/internal/obs"

// The fleet's metric surface: the dnasimd_fleet_* series — shard
// placement, cache effectiveness, hedging, erasures, ledger and spill.
// They share one registry with the job-lifecycle series the front-end
// registers (dnasimd_jobs_*, dnasimd_queue_depth, ...), the same names a
// single dnasimd exports, so a coordinator is a drop-in load-test target.
type fleetMetrics struct {
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	evictions    *obs.Counter
	replacements *obs.Counter
	hedgesFired  *obs.Counter
	shardsErased *obs.Counter
	shardsDone   *obs.Counter

	spillHits   *obs.Counter
	spillWrites *obs.Counter
	spillGC     *obs.Counter

	recovered     *obs.Counter
	ledgerReplays *obs.Counter
}

func newFleetMetrics(c *Coordinator, reg *obs.Registry) *fleetMetrics {
	m := &fleetMetrics{}
	m.cacheHits = reg.Counter("dnasimd_fleet_cache_hits_total",
		"Shard requests served from the content-addressed result cache (finished or in-flight).")
	m.cacheMisses = reg.Counter("dnasimd_fleet_cache_misses_total",
		"Shard requests that had to compute on a worker node.")
	m.replacements = reg.Counter("dnasimd_fleet_shard_replacements_total",
		"Shards re-placed on a different node after their placed node failed them.")
	m.hedgesFired = reg.Counter("dnasimd_fleet_hedges_fired_total",
		"Hedged backup requests launched against straggling shards.")
	m.shardsErased = reg.Counter("dnasimd_fleet_shards_erased_total",
		"Shards abandoned after every placement attempt failed (degraded completion).")
	m.shardsDone = reg.Counter("dnasimd_fleet_shards_completed_total",
		"Shards merged into a result (cache hits included, erasures excluded).")
	m.evictions = reg.Counter("dnasimd_fleet_cache_evictions_total",
		"Entries evicted from the in-memory shard cache (FIFO over capacity).")

	m.spillHits = reg.Counter("dnasimd_fleet_spill_hits_total",
		"Memory-cache misses served from the durable spill store.")
	m.spillWrites = reg.Counter("dnasimd_fleet_spill_writes_total",
		"Computed shard results spilled to durable containers.")
	m.spillGC = reg.Counter("dnasimd_fleet_spill_gc_total",
		"Spill entries deleted by the FIFO byte-budget garbage collector.")

	m.recovered = reg.Counter("dnasimd_fleet_recovered_jobs_total",
		"Jobs re-adopted from the write-ahead ledger after a restart.")
	m.ledgerReplays = reg.Counter("dnasimd_fleet_ledger_replays_total",
		"Job ledger files replayed at boot.")

	reg.GaugeFunc("dnasimd_fleet_nodes_eligible", "Worker nodes currently healthy with a non-open breaker.",
		func() float64 {
			n := 0
			for _, nd := range c.nodes {
				if nd.eligible() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("dnasimd_fleet_cache_entries", "Entries in the shard result cache (in-flight included).",
		func() float64 { return float64(c.cache.len()) })
	if c.spill != nil {
		reg.GaugeFunc("dnasimd_fleet_spill_entries", "Shard results resident in the durable spill store.",
			func() float64 { return float64(c.spill.entries()) })
	}
	return m
}
