package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"time"

	"dnastore/internal/server"
)

// The benchmark definition: every parameter that decides what a run does.
// Op counts and arrival rates are frozen here, so a run does the same work
// on every commit; each run records the definition's hash and -compare
// refuses run sets whose hashes differ.

// simulateParams defines the simulate workload: whole datasets the way
// `dnasim -o` makes them, on the paper's second-order channel and on the
// staged physical pipeline.
type simulateParams struct {
	Refs       int     `json:"refs"`
	RefLen     int     `json:"ref_len"`
	Coverage   float64 `json:"coverage"`
	Dispersion float64 `json:"dispersion"`
	// StagedRate and StagedYears parameterise channel.NewPhysicalPipeline.
	StagedRate  float64 `json:"staged_rate"`
	StagedYears float64 `json:"staged_years"`
	// StagedEvery makes every StagedEvery-th dataset a staged one.
	StagedEvery int `json:"staged_every"`
	// Ops is the number of datasets a run makes (see definition.ops).
	Ops int `json:"ops"`
	// ReplayClusters is how many clusters the traced transmit replay runs.
	ReplayClusters int `json:"replay_clusters"`
}

// storeParams defines the store workload: dnastore put then get rounds
// against a pool file, with the `dnastore get` defaults.
type storeParams struct {
	// BasePools is how many base pools, each with its own seed, rounds
	// rotate over.
	BasePools    int     `json:"base_pools"`
	Objects      int     `json:"objects"`
	ObjectBytes  int     `json:"object_bytes"`
	StrandParity int     `json:"strand_parity"`
	GroupData    int     `json:"group_data"`
	GroupParity  int     `json:"group_parity"`
	ErrorRate    float64 `json:"error_rate"`
	Coverage     float64 `json:"coverage"`
	Dispersion   float64 `json:"dispersion"`
	Retries      int     `json:"retries"`
	Backoff      float64 `json:"backoff"`
	// Ops is the number of rounds a run makes (see definition.ops).
	Ops int `json:"ops"`
	// Puts is the number of puts per round. A put costs a few percent of
	// a get, so extra puts buy put_ms samples almost for free.
	Puts int `json:"puts"`
	// ReplayGets is how many gets the traced decode replay re-runs.
	ReplayGets int `json:"replay_gets"`
}

// specClass is one kind of job in an open-loop traffic mix.
type specClass struct {
	Name string              `json:"name"`
	Spec server.SimulateSpec `json:"spec"`
}

// slot is one position of an open-loop traffic pattern: a first-time job
// of Class, or, when Lag > 0, a repeat of the arrival Lag positions
// earlier (a first-time Class job while there is none). On a single server
// a repeat is the identical job spec, which the server answers with an
// idempotent replay; on a fleet it is the same simulate spec under a new
// timeout_ms, a new job whose shards hit the cache.
type slot struct {
	Class string `json:"class"`
	Lag   int    `json:"lag,omitempty"`
}

// openParams defines an open-loop workload against dnasimd (Nodes == 0)
// or a fleet coordinator over Nodes worker servers. Arrival i takes
// Pattern[i % len(Pattern)], so every run, whatever its seed, sends the
// same mix in the same order; the seed only picks each spec's seed. A
// random mix made the class counts, and so every latency percentile,
// differ from seed to seed.
type openParams struct {
	// Rate is arrivals per second; a run fires Rate × seconds arrivals.
	Rate          float64     `json:"rate"`
	Classes       []specClass `json:"classes"`
	Pattern       []slot      `json:"pattern"`
	Nodes         int         `json:"nodes"`
	Workers       int         `json:"workers"`
	QueueCapacity int         `json:"queue_capacity"`
	ShardClusters int         `json:"shard_clusters"`
	// PollMS is the load generator's mean status poll interval; each wait
	// is drawn uniformly from [PollMS/2, 3·PollMS/2), so a job's latency is
	// not rounded up to whole poll intervals.
	PollMS int `json:"poll_ms"`
	// NodePollMS is the coordinator's poll interval on its worker nodes.
	NodePollMS int `json:"node_poll_ms,omitempty"`
	// Segments splits a run's arrivals into consecutive segments, each
	// served by a target set up in a process of its own (0 means 1).
	Segments int `json:"segments,omitempty"`
	// SecondOp names the arrivals second_op_ms_p50 is the median of: a
	// class, or "repeat".
	SecondOp string `json:"second_op"`
}

func (p openParams) segments() int { return max(p.Segments, 1) }

type definition struct {
	Seconds      int     `json:"seconds"`
	SetupRepeats int     `json:"setup_repeats"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	MaxConns     int     `json:"max_conns"`
	MaxLateMS    float64 `json:"max_late_ms"`
	// TimeoutFactor rejects a closed-loop run whose operations take longer
	// than TimeoutFactor × its seconds.
	TimeoutFactor float64 `json:"timeout_factor"`
	// SettleSeconds bounds the wait for server registries to settle.
	SettleSeconds int            `json:"settle_seconds"`
	Simulate      simulateParams `json:"simulate"`
	Store         storeParams    `json:"store"`
	Serve         openParams     `json:"serve"`
	Fleet         openParams     `json:"fleet"`
}

// hash identifies the definition in run sets.
func (d definition) hash() string {
	buf, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// ops is how many operations a closed-loop run of the given length makes:
// n at the definition's own Seconds, in proportion otherwise. The count
// depends on the run's length only, never on the speed of the code under
// test, so every commit does the same work.
func (d definition) ops(n int, seconds time.Duration) int {
	return max(int(math.Round(float64(n)*seconds.Seconds()/float64(d.Seconds))), 1)
}

// stagedSpec is the fleet drill's four-stage pipeline.
const stagedSpec = "synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew"

var fullDefinition = definition{
	Seconds:      20,
	SetupRepeats: 3,
	GOMAXPROCS:   2,
	MaxConns:     2,
	// Latency runs from each arrival's due time, so a generator delayed
	// by the host's scheduler still measures what users would see. One
	// late by half of serve's 33 ms arrival interval is falling behind its
	// schedule and no longer offers the defined load. The generator is
	// usually late by about 1 ms at p95, and by 5–12 ms while the host
	// steals CPU time.
	MaxLateMS:     15,
	TimeoutFactor: 4,
	SettleSeconds: 15,
	// 40 second-order and 20 staged datasets: about 20 s on the
	// reference host.
	Simulate: simulateParams{
		Refs: 10000, RefLen: 110, Coverage: 27, Dispersion: 1.2,
		StagedRate: 0.059, StagedYears: 10, StagedEvery: 3,
		Ops: 60, ReplayClusters: 10000,
	},
	// 40 rounds of 3 puts and a get: about 22 s on the reference host.
	Store: storeParams{
		BasePools: 40, Objects: 8, ObjectBytes: 1024, StrandParity: 8, GroupData: 10, GroupParity: 6,
		ErrorRate: 0.02, Coverage: 14, Dispersion: 6, Retries: 2, Backoff: 2,
		Ops: 40, Puts: 3, ReplayGets: 8,
	},
	// Every 20 arrivals: 12 small, 3 large and 2 staged jobs, and 3
	// repeats, of the block's first large job and of two small ones, which
	// the server answers with an idempotent replay.
	//
	// The second operation is the large job: simulation and a 2 MB result
	// through HTTP. The large and staged jobs set the tail. At 20
	// arrivals/s (400 per run) the tail's quartile distance across 10
	// seeds was 15% of its median; at 30/s, 7–8%. Their times also
	// differed more from server process to process than from job to job,
	// so a run spreads its arrivals over four server processes.
	Serve: openParams{
		Rate: 30,
		Classes: []specClass{
			{Name: "small", Spec: server.SimulateSpec{NumRefs: 16, RefLen: 110, Sub: 0.01, Ins: 0.005, Del: 0.02, Coverage: 10}},
			{Name: "large", Spec: server.SimulateSpec{NumRefs: 2000, RefLen: 110, Sub: 0.01, Ins: 0.005, Del: 0.02,
				Spatial: "terminal-skew", Coverage: 10, CoverageModel: "negbin"}},
			{Name: "staged", Spec: server.SimulateSpec{NumRefs: 1000, RefLen: 110, Stages: stagedSpec,
				Coverage: 10, CoverageModel: "negbin"}},
		},
		Pattern: []slot{
			{Class: "small"}, {Class: "large"}, {Class: "small"}, {Class: "small"}, {Class: "large", Lag: 3},
			{Class: "small"}, {Class: "staged"}, {Class: "small"}, {Class: "large"}, {Class: "small"},
			{Class: "small"}, {Class: "small", Lag: 2}, {Class: "small"}, {Class: "large"}, {Class: "small"},
			{Class: "staged"}, {Class: "small"}, {Class: "small", Lag: 1}, {Class: "small"}, {Class: "small"},
		},
		Workers: 2, QueueCapacity: 256, PollMS: 5, Segments: 4, SecondOp: "large",
	},
	// Every 10 arrivals: 7 first-time jobs and 3 re-runs of jobs of the
	// same block, whose shards the coordinator's memory cache holds. The
	// coordinator polls its nodes every 10 ms, as dnaload's fleet does, and
	// a shard is a few milliseconds of simulation: with 1 ms polls and
	// shards of 75 clusters the poll traffic slowed the shards it waited
	// on, and a run's median latency settled at one of two levels 50%
	// apart. At 20 arrivals/s jobs queued on the single-worker nodes more
	// often and the tail spread more from run to run, not less. Like
	// serve, a run spreads its arrivals over four coordinator processes.
	Fleet: openParams{
		Rate: 10,
		Classes: []specClass{
			{Name: "large", Spec: server.SimulateSpec{NumRefs: 1200, RefLen: 110, Sub: 0.01, Ins: 0.005, Del: 0.02,
				Spatial: "terminal-skew", Coverage: 5, CoverageModel: "negbin"}},
		},
		Pattern: []slot{
			{Class: "large"}, {Class: "large"}, {Class: "large", Lag: 2}, {Class: "large"}, {Class: "large"},
			{Class: "large"}, {Class: "large", Lag: 5}, {Class: "large"}, {Class: "large", Lag: 3}, {Class: "large"},
		},
		Nodes: 2, Workers: 1, QueueCapacity: 256, ShardClusters: 150, PollMS: 5, NodePollMS: 10, Segments: 4,
		SecondOp: "repeat",
	},
}

// smokeDefinition is the same benchmark shrunk to run every workload in a
// few seconds: the test suite runs it to keep the benchmark working.
var smokeDefinition = func() definition {
	d := fullDefinition
	d.Seconds = 1
	d.SetupRepeats = 1
	d.Simulate.Refs, d.Simulate.Ops, d.Simulate.StagedEvery, d.Simulate.ReplayClusters = 300, 4, 2, 50
	d.Store.BasePools, d.Store.Objects, d.Store.ObjectBytes, d.Store.Ops, d.Store.ReplayGets = 2, 2, 128, 4, 1
	d.Serve.Rate, d.Serve.Segments = 20, 2
	d.Serve.Classes = shrink(d.Serve.Classes, 10)
	d.Fleet.Rate, d.Fleet.ShardClusters, d.Fleet.Segments = 12, 15, 2
	d.Fleet.Classes = shrink(d.Fleet.Classes, 10)
	return d
}()

// shrink divides each class's reference count by f.
func shrink(classes []specClass, f int) []specClass {
	out := append([]specClass(nil), classes...)
	for i := range out {
		out[i].Spec.NumRefs = max(out[i].Spec.NumRefs/f, 4)
	}
	return out
}

// golden holds the SHA-256 of each output at seed 1 with fullDefinition at
// its own Seconds; a run under those settings must reproduce them.
var golden = map[string]string{
	"simulate/tier4":  "38becb5be6bf978dbe6d5df48d977739b8b98b3137fea755ef804c765d3844c0",
	"simulate/staged": "7ed046eb53a472187ad94611075d78edbf17f79c0b5d69ece48bbb8611eee75a",
	"store/gets":      "b263f7ba2db1f5e6dcee31fd89d125c879076f971c878f564b6c463215a7a0b8",
	"serve/results":   "512143cd23477ee9f665caacfd2d24a4f9138a47a77322849f9a3966655223be",
	"fleet/results":   "23cd73af45baa2315194632eb44de9582d0cd18dedc43719a82f8fffc0586ccc",
}

// metricDef declares a metric. For end-to-end metrics Bound is the share
// of the parent's median by which the metric may worsen before a change
// counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is an absolute allowance, in Unit, below which -compare never
	// shrinks the bound.
	Floor float64 `json:"-"`
}

// e2eMetrics are reported by every workload. Each workload has a primary
// and a second operation; see README.md for what they are.
//
// The time bounds are 25%: the reference host's speed drifts for whole
// runs, and across 10 seeds the quartile distance of a latency median
// reached 15% on simulate and store and 22% on serve's large jobs (see
// README.md). setup_s, a fraction of a second, gets an absolute floor too.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "second_op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// layerDef declares a per-layer metric: which layer it measures, which
// workloads exercise it (the others report 0), and the end-to-end metric
// it should move.
type layerDef struct {
	metricDef
	Layer     string   `json:"layer"`
	Workloads []string `json:"workloads"`
	Moves     string   `json:"moves"`
}

func layer(name, unit, better, layer, moves string, workloads ...string) layerDef {
	return layerDef{metricDef: metricDef{Name: name, Unit: unit, Better: better}, Layer: layer, Workloads: workloads, Moves: moves}
}

var layerMetrics = []layerDef{
	layer("channel.simulate_s", "s", "lower", "channel", "latency_ms_p50@simulate", "simulate"),
	layer("channel.transmit_ns_per_read", "ns", "lower", "channel", "latency_ms_p50@simulate", "simulate"),
	layer("channel.parallel_eff", "ratio", "higher", "channel", "latency_ms_p50@simulate", "simulate"),
	layer("channel.reads", "count", "higher", "channel", "latency_ms_p50@simulate", "simulate"),
	layer("channel.staged_simulate_s", "s", "lower", "channel", "second_op_ms_p50@simulate", "simulate"),
	layer("channel.staged_transmit_ns_per_read", "ns", "lower", "channel", "second_op_ms_p50@simulate", "simulate"),
	layer("dataset.encode_s", "s", "lower", "dataset", "latency_ms_p50@simulate", "simulate"),
	layer("dataset.bytes", "bytes", "lower", "dataset", "latency_ms_p50@simulate", "simulate"),
	layer("durable.write_s", "s", "lower", "durable", "latency_ms_p50@simulate", "simulate"),
	layer("durable.pool_save_ms", "ms", "lower", "durable", "second_op_ms_p50@store", "store"),
	layer("durable.pool_load_ms", "ms", "lower", "durable", "latency_ms_p50@store", "store"),
	layer("codec.encode_ms", "ms", "lower", "codec", "second_op_ms_p50@store", "store"),
	layer("store.sequence_ms", "ms", "lower", "store", "latency_ms_p50@store", "store"),
	layer("store.decode_ms", "ms", "lower", "store", "latency_ms_p50@store", "store"),
	layer("store.attempts_per_get", "count", "lower", "store", "latency_ms_tail@store", "store"),
	layer("codec.select_ms", "ms", "lower", "codec", "latency_ms_p50@store", "store"),
	layer("cluster.greedy_ms", "ms", "lower", "cluster", "latency_ms_p50@store", "store"),
	layer("cluster.clusters_per_strand", "ratio", "higher", "cluster", "failed@store", "store"),
	layer("recon.reconstruct_ms", "ms", "lower", "recon", "latency_ms_p50@store", "store"),
	layer("recon.us_per_cluster", "us", "lower", "recon", "latency_ms_p50@store", "store"),
	layer("codec.decode_ms", "ms", "lower", "codec", "latency_ms_p50@store", "store"),
	layer("codec.repaired_strands", "count", "lower", "codec", "failed@store", "store"),
	layer("codec.erased_strands", "count", "lower", "codec", "failed@store", "store"),
	layer("trace.accounted_frac", "ratio", "higher", "trace", "latency_ms_p50@simulate,store", "simulate", "store"),
	layer("server.attempt_ms_mean", "ms", "lower", "server", "latency_ms_tail@serve,fleet", "serve", "fleet"),
	layer("server.queue_wait_ms_mean", "ms", "lower", "server", "latency_ms_tail@serve,fleet", "serve", "fleet"),
	layer("server.simulate_s", "s", "lower", "server", "latency_ms_tail@serve,latency_ms_p50@fleet", "serve", "fleet"),
	layer("server.non_simulate_s", "s", "lower", "server", "latency_ms_tail@serve,fleet", "serve", "fleet"),
	layer("server.busy_frac", "ratio", "lower", "server", "latency_ms_tail@serve,fleet", "serve", "fleet"),
	layer("server.idempotent_replays", "count", "higher", "server", "failed@serve", "serve", "fleet"),
	layer("server.requeues", "count", "lower", "server", "failed@serve,fleet", "serve", "fleet"),
	layer("server.shed", "count", "lower", "server", "failed@serve,fleet", "serve", "fleet"),
	layer("client.submit_ms_p50", "ms", "lower", "client", "latency_ms_p50@serve,fleet", "serve", "fleet"),
	layer("client.polls_per_job", "count", "lower", "client", "latency_ms_p50@serve,fleet", "serve", "fleet"),
	layer("client.result_ms_p50", "ms", "lower", "client", "latency_ms_p50@serve,fleet", "serve", "fleet"),
	layer("client.result_mb", "MB", "lower", "client", "latency_ms_tail@serve,fleet", "serve", "fleet"),
	layer("client.conn_wait_ms_p95", "ms", "lower", "client", "latency_ms_tail@serve,fleet", "serve", "fleet"),
	layer("client.retries", "count", "lower", "client", "latency_ms_tail@serve,fleet", "serve", "fleet"),
	layer("loadgen.late_ms_p95", "ms", "lower", "client", "latency_ms_tail@serve,fleet", "serve", "fleet"),
	layer("fleet.cache_hit_ratio", "ratio", "higher", "fleet", "second_op_ms_p50@fleet", "fleet"),
	layer("fleet.shards_completed", "count", "higher", "fleet", "latency_ms_p50@fleet", "fleet"),
	layer("fleet.shard_replacements", "count", "lower", "fleet", "latency_ms_tail@fleet", "fleet"),
	layer("fleet.spill_writes", "count", "lower", "fleet", "latency_ms_tail@fleet", "fleet"),
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"simulate", "store", "serve", "fleet"}
