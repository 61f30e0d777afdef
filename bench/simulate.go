package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/durable"
	"dnastore/internal/rng"
)

// secondOrderModel is the paper's "+ 2nd-order Errors" tier, the channel
// dnabench's secondOrderBenchModel measures: spatial skew plus specific
// errors with their own position histograms.
func secondOrderModel() *channel.Model {
	m := channel.NewNaive("bench-2so", channel.NanoporeMix(0.059))
	m.LongDel = channel.PaperLongDeletion()
	m.InsDist = [dna.NumBases]float64{0.3, 0.2, 0.2, 0.3}
	tail := make([]float64, 300)
	for i := range tail {
		tail[i] = 1
	}
	tail[299] = 40
	return m.WithSpatial(dist.NanoporeSkew()).WithSecondOrder([]channel.SecondOrderError{
		{Kind: align.Del, From: dna.G, Rate: 0.011, Spatial: []float64{1, 1, 1, 1, 8}},
		{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 0.006},
		{Kind: align.Ins, To: dna.T, Rate: 0.002, Spatial: tail},
	})
}

// simKind is one channel family of the simulate workload and the file its
// datasets are written to.
type simKind struct {
	name string
	sim  channel.Simulator
	path string
}

type simState struct {
	refs  []dna.Strand
	kinds [2]simKind // tier4, staged
	last  [2]*dataset.Dataset
}

// countingWriter counts the bytes dataset encoding produces.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// makeDataset is one simulate operation, as `dnasim -o` performs it:
// SimulateCtx, then an atomic durable write of the encoded dataset.
func makeDataset(ctx context.Context, tr *tracer, op int, k simKind, refs []dna.Strand, seed uint64) (*dataset.Dataset, error) {
	root := tr.start("op."+k.name, op, 0)
	defer tr.end(root, len(refs))
	id := tr.start("channel.simulate", op, root)
	ds, err := k.sim.SimulateCtx(ctx, "simulated", refs, seed)
	if err != nil {
		return nil, err
	}
	tr.end(id, ds.NumReads())
	wid := tr.start("durable.write", op, root)
	err = durable.WriteFileAtomic(k.path, func(w io.Writer) error {
		eid := tr.start("dataset.encode", op, wid)
		cw := &countingWriter{w: w}
		err := ds.Write(cw)
		tr.end(eid, cw.n)
		return err
	})
	tr.end(wid, 0)
	return ds, err
}

func runSimulate(ctx context.Context, e *env) (*outcome, error) {
	p := e.def.Simulate
	setup := func() (*simState, func(), error) {
		st := &simState{refs: channel.RandomReferences(p.Refs, p.RefLen, subSeed(e.seed, 0))}
		cov := channel.NegBinCoverage{Mean: p.Coverage, Dispersion: p.Dispersion}
		pipe := channel.NewPhysicalPipeline("bench-staged", p.StagedRate, p.StagedYears)
		st.kinds = [2]simKind{
			{name: "tier4", sim: channel.Simulator{Channel: secondOrderModel(), Coverage: cov}, path: filepath.Join(e.workdir, "tier4.txt")},
			{name: "staged", sim: channel.Simulator{Channel: pipe, Coverage: pipe.BindCoverage(cov)}, path: filepath.Join(e.workdir, "staged.txt")},
		}
		// One untimed dataset of each kind: plan compilation, page faults
		// and heap growth land in setup, not in the first measured op.
		for _, k := range st.kinds {
			if _, err := makeDataset(ctx, nil, 0, k, st.refs, e.seed); err != nil {
				return nil, nil, fmt.Errorf("warm-up %s: %w", k.name, err)
			}
		}
		return st, func() {}, nil
	}
	st, setupS, teardown, err := setupRepeated(e.def.SetupRepeats, setup)
	if err != nil {
		return nil, err
	}
	defer teardown()

	out := newOutcome()
	var lat [2][]float64 // ms per dataset, by kind
	n := e.def.ops(p.Ops, e.seconds)
	meter := startMeter()
	start := time.Now()
	for op := 1; op <= n; op++ {
		if err := e.timeLimit(start, op-1, n); err != nil {
			meter.finish()
			return nil, err
		}
		ki := 0
		if op%p.StagedEvery == 0 {
			ki = 1
		}
		t0 := time.Now()
		ds, err := makeDataset(ctx, e.trace, op, st.kinds[ki], st.refs, e.seed)
		ms := msSince(t0)
		out.attempted++
		if err != nil {
			out.fail("dataset %d (%s): %v", op, st.kinds[ki].name, err)
			continue
		}
		lat[ki] = append(lat[ki], ms)
		st.last[ki] = ds
	}
	out.metrics["rss_mb"] = median(meter.finish())

	// Every dataset of a kind is the same bytes (same refs, same seed), so
	// one read-back per kind checks the durable file against the encoder
	// and, at seed 1, against the golden hash.
	for ki, k := range st.kinds {
		if st.last[ki] == nil {
			continue
		}
		sum, err := checkDatasetFile(k.path, st.last[ki], p.Refs)
		if err != nil {
			out.fail("%s: %v", k.name, err)
			out.failed += len(lat[ki])
			continue
		}
		out.output("simulate/"+k.name, sum, e.goldenApplies)
	}

	out.metrics["setup_s"] = median(setupS)
	out.metrics["latency_ms_p50"] = median(lat[0])
	out.metrics["latency_ms_tail"] = percentile(lat[0], tailPercentile(len(lat[0])))
	out.metrics["second_op_ms_p50"] = median(lat[1])
	if e.trace != nil {
		if err := simulateLayers(e, st, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkDatasetFile reads a dataset file back and returns its SHA-256,
// failing when it is not the bytes ds encodes to or not wantClusters
// clusters.
func checkDatasetFile(path string, ds *dataset.Dataset, wantClusters int) (string, error) {
	if got := ds.NumClusters(); got != wantClusters {
		return "", fmt.Errorf("%d clusters, want %d", got, wantClusters)
	}
	h := sha256.New()
	if err := ds.Write(h); err != nil {
		return "", err
	}
	want := hex.EncodeToString(h.Sum(nil))
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h.Reset()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		return "", fmt.Errorf("durable file %s hashes %s, encoder gives %s", path, got[:12], want[:12])
	}
	return want, nil
}

// simulateLayers turns the traced run's spans into per-layer metrics and
// replays AppendTransmit for the kernel's per-read cost.
func simulateLayers(e *env, st *simState, out *outcome) error {
	p := e.def.Simulate
	spans := e.trace.snapshot()
	self := selfTimes(spans)
	kindOf := map[int]string{}
	wall := map[int]float64{}
	for _, s := range spans {
		if s.Parent == 0 {
			kindOf[s.Op] = s.Name
			wall[s.Op] = s.Dur().Seconds()
		}
	}
	per := map[string]map[string][]float64{"op.tier4": {}, "op.staged": {}}
	accounted := map[int]float64{}
	for _, s := range spans {
		kind := kindOf[s.Op]
		if s.Parent == 0 || per[kind] == nil {
			continue
		}
		m := per[kind]
		switch s.Name {
		case "channel.simulate":
			m["simulate"] = append(m["simulate"], s.Dur().Seconds())
			m["reads"] = append(m["reads"], float64(s.Items))
			accounted[s.Op] += s.Dur().Seconds()
		case "durable.write":
			m["write_self"] = append(m["write_self"], self[s.ID].Seconds())
			accounted[s.Op] += self[s.ID].Seconds()
		case "dataset.encode":
			m["encode"] = append(m["encode"], s.Dur().Seconds())
			m["bytes"] = append(m["bytes"], float64(s.Items))
			accounted[s.Op] += s.Dur().Seconds()
		}
	}
	var frac []float64
	for op, kind := range kindOf {
		if kind == "op.tier4" && wall[op] > 0 {
			frac = append(frac, accounted[op]/wall[op])
		}
	}
	t4, sg := per["op.tier4"], per["op.staged"]
	l := out.layers
	l["channel.simulate_s"] = median(t4["simulate"])
	l["channel.reads"] = median(t4["reads"])
	l["channel.staged_simulate_s"] = median(sg["simulate"])
	l["dataset.encode_s"] = median(t4["encode"])
	l["dataset.bytes"] = median(t4["bytes"])
	l["durable.write_s"] = median(t4["write_self"])
	l["trace.accounted_frac"] = median(frac)

	// The replays run on one goroutine; a collection of the measured
	// phase's garbage running beside them would inflate them.
	runtime.GC()
	names := [2]string{"channel.transmit_ns_per_read", "channel.staged_transmit_ns_per_read"}
	for ki, k := range st.kinds {
		if st.last[ki] == nil {
			continue
		}
		nsPerRead, perCluster, err := replayTransmit(e.trace, k, st.refs, e.seed, st.last[ki], p.ReplayClusters)
		if err != nil {
			return fmt.Errorf("%s transmit replay: %w", k.name, err)
		}
		l[names[ki]] = nsPerRead
		if ki == 0 {
			l["channel.parallel_eff"] = perCluster * float64(p.Refs) /
				(l["channel.simulate_s"] * float64(e.def.GOMAXPROCS))
		}
	}
	return nil
}

// clusterSeed is the per-cluster RNG split channel.Simulator uses: seed
// and global cluster index name each cluster's stream. The replay below
// re-derives it and then checks that it reproduced the dataset's reads,
// so a change to the scheme shows as a replay error, not a wrong number.
func clusterSeed(seed uint64, gi int) uint64 { return seed ^ (0x9e3779b97f4a7c15 * uint64(gi+1)) }

// replayTransmit re-generates the first n clusters of want on one
// goroutine through the channel's AppendTransmit kernel, one span per
// cluster (never per read). It returns the kernel's ns per read and the
// serial seconds per cluster.
func replayTransmit(tr *tracer, k simKind, refs []dna.Strand, seed uint64, want *dataset.Dataset, n int) (nsPerRead, secPerCluster float64, err error) {
	at, ok := k.sim.Channel.(channel.AppendTransmitter)
	if !ok {
		return 0, 0, errors.New("channel has no AppendTransmit kernel")
	}
	n = min(n, len(refs))
	var (
		scr   channel.Scratch
		buf   []byte
		ends  []int
		total time.Duration
		reads int
	)
	for gi := 0; gi < n; gi++ {
		id := tr.start("channel.transmit", -1, 0)
		t0 := time.Now()
		r := rng.New(clusterSeed(seed, gi))
		var count int
		if ra, ok := k.sim.Coverage.(channel.RefAwareCoverage); ok {
			count = ra.SampleRef(refs[gi], gi, r)
		} else {
			count = k.sim.Coverage.Sample(gi, r)
		}
		codes := scr.RefBases(refs[gi])
		buf, ends = buf[:0], ends[:0]
		for j := 0; j < count; j++ {
			buf = at.AppendTransmit(buf, codes, r, &scr)
			ends = append(ends, len(buf))
		}
		total += time.Since(t0)
		tr.end(id, count)
		reads += count
		got := want.Clusters[gi].Reads
		if len(got) != count {
			return 0, 0, fmt.Errorf("cluster %d: replay made %d reads, dataset has %d", gi, count, len(got))
		}
		prev := 0
		for j, end := range ends {
			if !bytes.Equal(buf[prev:end], []byte(got[j])) {
				return 0, 0, fmt.Errorf("cluster %d read %d differs from the dataset", gi, j)
			}
			prev = end
		}
	}
	if reads == 0 {
		return 0, 0, errors.New("replay produced no reads")
	}
	return float64(total.Nanoseconds()) / float64(reads), total.Seconds() / float64(n), nil
}
