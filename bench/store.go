package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
	"dnastore/internal/store"
)

// primerMismatch is store.Options' default PCR selection tolerance, the
// one a pool saved by SaveFile carries.
const primerMismatch = 3

// storeRun holds what the rounds of one store run share.
type storeRun struct {
	e    *env
	p    storeParams
	arch codec.Archive
	dir  string
}

// basePath is the base pool file round i starts from. A loaded pool draws
// the next primer from a generator seeded by the pool's own seed, so all
// rounds on one base pool store under one primer, and swapping only the
// primer moved cluster.Greedy's median cost by about 30% between two
// measured seeds. Rounds rotate over BasePools pools with their own seeds,
// so a run averages over many primers instead of drawing one.
func (s *storeRun) basePath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("base-%02d.pool", i%s.p.BasePools))
}

// getRecord is one get as the run saw it.
type getRecord struct {
	round    int
	data     []byte
	seed     uint64
	attempts int
	rep      store.RetrieveReport
	stages   map[string]time.Duration // production StageTimer walls
}

// object returns the seeded payload named by tag: base objects and round
// objects draw from disjoint tags.
func (s *storeRun) object(tag int) []byte {
	r := rng.New(subSeed(s.e.seed, uint64(tag)))
	b := make([]byte, s.p.ObjectBytes)
	for j := range b {
		b[j] = byte(r.Uint64())
	}
	return b
}

// sequencer is the `dnastore get` default read channel: a NanoporeMix
// sequencer at the given error rate under NegBin coverage, scaled by the
// retry escalation.
func (s *storeRun) sequencer(_ int, scale float64) (channel.Channel, channel.CoverageModel) {
	return channel.NewNaive("sequencer", channel.NanoporeMix(s.p.ErrorRate)),
		channel.NegBinCoverage{Mean: s.p.Coverage * scale, Dispersion: s.p.Dispersion}
}

func roundKey(i int) string { return fmt.Sprintf("put-%04d", i) }

// put is `dnastore put`: load round i's base pool, store data under key,
// save the pool to path. It returns the put's time.
func (s *storeRun) put(tr *tracer, i int, key string, data []byte, path string) (float64, error) {
	root := tr.start("op.put", i, 0)
	defer tr.end(root, 1)
	t0 := time.Now()
	id := tr.start("durable.pool_load", i, root)
	pool, _, err := store.LoadFile(s.basePath(i))
	tr.end(id, 0)
	if err != nil {
		return 0, err
	}
	id = tr.start("store.store", i, root)
	err = pool.Store(key, data)
	tr.end(id, len(data))
	if err != nil {
		return 0, err
	}
	id = tr.start("durable.pool_save", i, root)
	err = pool.SaveFile(path)
	tr.end(id, 0)
	return msSince(t0), err
}

// round runs Puts puts of new objects into the round's base pool, each
// saved to a pool file of its own, then one get (load, RetrieveAdaptive,
// byte-compare) of the first object — `dnastore put` then `dnastore get`.
// Every put starts from the base pool, so the get's pool holds Objects+1
// objects in every round and rounds are alike.
func (s *storeRun) round(ctx context.Context, tr *tracer, i int) (putMs []float64, getMs float64, rec getRecord, err error) {
	data := s.object(1_000_000 + i)
	key := roundKey(i)
	getPath := filepath.Join(s.dir, "work.pool")
	for j := 0; j < max(s.p.Puts, 1); j++ {
		obj, k, path := data, key, getPath
		if j > 0 {
			obj, k = s.object(5_000_000+i*s.p.Puts+j), fmt.Sprintf("%s-%d", key, j)
			path = filepath.Join(s.dir, fmt.Sprintf("work-%d.pool", j))
		}
		ms, err := s.put(tr, i, k, obj, path)
		if err != nil {
			return putMs, 0, rec, err
		}
		putMs = append(putMs, ms)
	}

	rec = getRecord{round: i, data: data, seed: subSeed(s.e.seed, uint64(2_000_000+i)), stages: map[string]time.Duration{}}
	root := tr.start("op.get", i, 0)
	t1 := time.Now()
	id := tr.start("durable.pool_load", i, root)
	pool, _, err := store.LoadFile(getPath)
	tr.end(id, 0)
	if err != nil {
		return putMs, 0, rec, err
	}
	// `dnastore get` always attaches a stage timer; so does the benchmark.
	timer := obs.NewStageTimer()
	id = tr.start("store.retrieve", i, root)
	got, rep, attempts, err := pool.RetrieveAdaptive(obs.WithTimer(ctx, timer), key, s.sequencer,
		store.RetryPolicy{MaxAttempts: s.p.Retries + 1, Backoff: s.p.Backoff}, rec.seed)
	tr.end(id, attempts)
	if err == nil && !bytes.Equal(got, data) {
		err = errors.New("retrieved bytes differ from the stored object")
	}
	getMs = msSince(t1)
	tr.end(root, 1)
	rec.attempts, rec.rep = attempts, rep
	for _, st := range timer.Snapshot() {
		rec.stages[st.Stage] = st.Wall
	}
	return putMs, getMs, rec, err
}

func runStore(ctx context.Context, e *env) (*outcome, error) {
	s := &storeRun{
		e: e, p: e.def.Store, dir: e.workdir,
		arch: codec.Archive{StrandParity: e.def.Store.StrandParity, GroupData: e.def.Store.GroupData, GroupParity: e.def.Store.GroupParity},
	}
	setup := func() (struct{}, func(), error) {
		for b := 0; b < s.p.BasePools; b++ {
			pool := store.New(store.Options{Archive: s.arch, Seed: subSeed(e.seed, uint64(4_000_000+b))})
			for i := 0; i < s.p.Objects; i++ {
				if err := pool.Store(fmt.Sprintf("obj-%02d", i), s.object(3_000_000+i)); err != nil {
					return struct{}{}, nil, err
				}
			}
			if err := pool.SaveFile(s.basePath(b)); err != nil {
				return struct{}{}, nil, err
			}
		}
		// No warm-up round: it would cost a get, about half a second, per
		// setup, and first-use costs land in one round of Ops.
		return struct{}{}, func() {}, nil
	}
	_, setupS, teardown, err := setupRepeated(e.def.SetupRepeats, setup)
	if err != nil {
		return nil, err
	}
	defer teardown()

	out := newOutcome()
	var puts, gets []float64
	var recs []getRecord
	var replays []decodeReplay
	digest := sha256.New()
	n := e.def.ops(s.p.Ops, e.seconds)
	meter := startMeter()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := e.timeLimit(start, i, n); err != nil {
			meter.finish()
			return nil, err
		}
		putMs, getMs, rec, err := s.round(ctx, e.trace, i)
		out.attempted++
		sum := sha256.Sum256(rec.data)
		if err != nil {
			sum = [32]byte{}
		}
		digest.Write(sum[:])
		if err != nil {
			out.fail("round %d: %v", i, err)
			continue
		}
		puts, gets = append(puts, putMs...), append(gets, getMs)
		recs = append(recs, rec)
		// Replay a get's decode right after it, outside its timing, so the
		// two run in the same machine state.
		if e.trace != nil && len(replays) < s.p.ReplayGets && rec.attempts == 1 {
			x, err := s.replayDecode(ctx, rec)
			if err != nil {
				return nil, fmt.Errorf("round %d decode replay: %w", i, err)
			}
			replays = append(replays, x)
		}
	}
	out.metrics["rss_mb"] = median(meter.finish())
	out.output("store/gets", hex.EncodeToString(digest.Sum(nil)), e.goldenApplies)

	out.metrics["setup_s"] = median(setupS)
	out.metrics["latency_ms_p50"] = median(gets)
	out.metrics["latency_ms_tail"] = percentile(gets, tailPercentile(len(gets)))
	out.metrics["second_op_ms_p50"] = median(puts)
	if e.trace != nil {
		if err := s.layers(recs, replays, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layers turns the traced run's spans, stage timings and decode replays
// into per-layer metrics.
func (s *storeRun) layers(recs []getRecord, replays []decodeReplay, out *outcome) error {
	if len(replays) == 0 {
		return errors.New("no single-attempt get to replay")
	}
	dur := durationsMS(s.e.trace.snapshot())
	l := out.layers
	l["durable.pool_load_ms"] = median(dur["durable.pool_load"])
	l["durable.pool_save_ms"] = median(dur["durable.pool_save"])

	var seq, dec, attempts []float64
	for _, r := range recs {
		seq = append(seq, ms(r.stages["store.sequence"]))
		dec = append(dec, ms(r.stages["store.decode"]))
		attempts = append(attempts, float64(r.attempts))
	}
	l["store.sequence_ms"] = median(seq)
	l["store.decode_ms"] = median(dec)
	l["store.attempts_per_get"] = mean(attempts)

	field := func(f func(decodeReplay) float64) float64 {
		xs := make([]float64, len(replays))
		for i, x := range replays {
			xs[i] = f(x)
		}
		return median(xs)
	}
	l["codec.encode_ms"] = field(func(x decodeReplay) float64 { return x.encodeMs })
	l["codec.select_ms"] = field(func(x decodeReplay) float64 { return x.selectMs })
	l["cluster.greedy_ms"] = field(func(x decodeReplay) float64 { return x.greedyMs })
	l["cluster.clusters_per_strand"] = field(func(x decodeReplay) float64 { return x.clustersPerStrand })
	l["recon.reconstruct_ms"] = field(func(x decodeReplay) float64 { return x.reconMs })
	l["recon.us_per_cluster"] = field(func(x decodeReplay) float64 { return 1000 * x.reconMs / float64(x.clusters) })
	l["codec.decode_ms"] = field(func(x decodeReplay) float64 { return x.decodeMs })
	l["codec.repaired_strands"] = field(func(x decodeReplay) float64 { return float64(x.repaired) })
	l["codec.erased_strands"] = field(func(x decodeReplay) float64 { return float64(x.erased) })
	l["trace.accounted_frac"] = field(func(x decodeReplay) float64 {
		return (x.selectMs + x.greedyMs + x.reconMs + x.decodeMs) / x.productionMs
	})
	return nil
}

// decodeReplay is one replayed first attempt of a get.
type decodeReplay struct {
	encodeMs, selectMs, greedyMs, reconMs, decodeMs float64
	// productionMs is the get's own store.decode stage time.
	productionMs               float64
	clusters, repaired, erased int
	clustersPerStrand          float64
}

// attemptSeed is the sequencing seed store.RetrieveAdaptive derives for
// an attempt (a SplitMix64 finalizer). The replay checks its read count
// and cluster count against the get's RetrieveReport, so a change to the
// derivation shows as a replay error.
func attemptSeed(seed uint64, attempt int) uint64 {
	z := seed + uint64(attempt)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// replayDecode rebuilds the get's pool, sequences it exactly as the get's
// first attempt did, and runs RetrieveReport's steps one by one through
// the codec, cluster and recon packages, one span each.
func (s *storeRun) replayDecode(ctx context.Context, r getRecord) (decodeReplay, error) {
	x := decodeReplay{productionMs: ms(r.stages["store.decode"])}
	tr, op := s.e.trace, r.round
	pool, _, err := store.LoadFile(s.basePath(r.round))
	if err != nil {
		return x, err
	}
	if err := pool.Store(roundKey(r.round), r.data); err != nil {
		return x, err
	}
	id := tr.start("codec.encode", op, 0)
	t0 := time.Now()
	strands, err := s.arch.Encode(r.data)
	x.encodeMs = msSince(t0)
	tr.end(id, len(strands))
	if err != nil {
		return x, err
	}
	// The object's primer is whatever DesignedStrands prepends to its
	// first encoded strand.
	var primer dna.Strand
	for _, d := range pool.DesignedStrands() {
		if strings.HasSuffix(string(d), string(strands[0])) {
			primer = d[:len(d)-len(strands[0])]
		}
	}
	if primer == "" {
		return x, errors.New("object's primer not found among the designed strands")
	}
	ch, cov := s.sequencer(1, 1)
	reads, err := pool.SequenceCtx(ctx, ch, cov, attemptSeed(r.seed, 1))
	if err != nil {
		return x, err
	}

	id = tr.start("codec.select", op, 0)
	t0 = time.Now()
	selected := codec.SelectAmplify(reads, primer, primerMismatch)
	x.selectMs = msSince(t0)
	tr.end(id, len(selected))

	id = tr.start("cluster.greedy", op, 0)
	t0 = time.Now()
	clusters := cluster.Greedy(selected, cluster.Config{})
	x.greedyMs = msSince(t0)
	tr.end(id, len(clusters))
	if len(selected) != r.rep.ReadsSelected || len(clusters) != r.rep.Clusters {
		return x, fmt.Errorf("replay selected %d reads in %d clusters, the get %d in %d",
			len(selected), len(clusters), r.rep.ReadsSelected, r.rep.Clusters)
	}

	rc := recon.NewTwoWayIterative() // store.Options' default reconstructor
	length := s.arch.StrandLength()
	id = tr.start("recon.reconstruct", op, 0)
	t0 = time.Now()
	var recovered []dna.Strand
	useful := 0
	for _, members := range clusters {
		if len(members) == 0 {
			continue
		}
		if len(members) > 1 {
			useful++
		}
		recovered = append(recovered, rc.Reconstruct(members, length))
	}
	x.reconMs = msSince(t0)
	tr.end(id, len(recovered))

	id = tr.start("codec.decode", op, 0)
	t0 = time.Now()
	_, dr, err := s.arch.DecodeReport(recovered)
	x.decodeMs = msSince(t0)
	tr.end(id, dr.Strands)
	if err != nil {
		return x, err
	}
	x.clusters = max(len(recovered), 1)
	x.repaired, x.erased = dr.Repaired, dr.Erased
	x.clustersPerStrand = float64(useful) / float64(len(strands))
	return x, nil
}
