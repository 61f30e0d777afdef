package cluster

import (
	"hash/fnv"
	"slices"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/metrics"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
)

func makePoolDataset(n, cov int, rate float64, seed uint64) (pool []dna.Strand, labels []int, refs []dna.Strand) {
	refs = channel.RandomReferences(n, 110, seed)
	sim := channel.Simulator{
		Channel:  channel.NewNaive("n", channel.NanoporeMix(rate)),
		Coverage: channel.FixedCoverage(cov),
	}
	ds := sim.Simulate("pool", refs, seed+1)
	pool, labels = LabeledPool(ds)
	// Shuffle pool and labels together.
	r := rng.New(seed + 2)
	r.Shuffle(len(pool), func(i, j int) {
		pool[i], pool[j] = pool[j], pool[i]
		labels[i], labels[j] = labels[j], labels[i]
	})
	return pool, labels, refs
}

func TestGreedyPerfectOnCleanReads(t *testing.T) {
	refs := channel.RandomReferences(50, 110, 1)
	var pool []dna.Strand
	var labels []int
	for i, ref := range refs {
		for k := 0; k < 4; k++ {
			pool = append(pool, ref)
			labels = append(labels, i)
		}
	}
	clusters := GreedyIndices(pool, Config{})
	if len(clusters) != 50 {
		t.Fatalf("got %d clusters, want 50", len(clusters))
	}
	p, err := Purity(clusters, labels)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("purity = %v", p)
	}
}

func TestGreedyOnNoisyReads(t *testing.T) {
	pool, labels, _ := makePoolDataset(80, 8, 0.06, 3)
	clusters := GreedyIndices(pool, Config{})
	p, err := Purity(clusters, labels)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.95 {
		t.Errorf("purity = %v, want >= 0.95", p)
	}
	// Cluster count should be near the reference count (some fragmentation
	// is expected and realistic).
	if len(clusters) < 80 || len(clusters) > 160 {
		t.Errorf("cluster count = %d, want ≈80", len(clusters))
	}
}

func TestGreedyStrandsMatchIndices(t *testing.T) {
	pool, _, _ := makePoolDataset(20, 4, 0.05, 4)
	byIdx := GreedyIndices(pool, Config{})
	byStrand := Greedy(pool, Config{})
	if len(byIdx) != len(byStrand) {
		t.Fatalf("cluster counts differ: %d vs %d", len(byIdx), len(byStrand))
	}
	for i := range byIdx {
		if len(byIdx[i]) != len(byStrand[i]) {
			t.Fatalf("cluster %d sizes differ", i)
		}
		for j, m := range byIdx[i] {
			if pool[m] != byStrand[i][j] {
				t.Fatalf("cluster %d member %d mismatch", i, j)
			}
		}
	}
}

func TestShortReadsFormSingletons(t *testing.T) {
	pool := []dna.Strand{"ACG", "ACG", "TGCA"}
	clusters := GreedyIndices(pool, Config{K: 12})
	// Reads shorter than k hash whole-strand: identical short reads should
	// still cluster together.
	total := 0
	for _, c := range clusters {
		total += len(c)
	}
	if total != 3 {
		t.Fatalf("clusters cover %d reads", total)
	}
}

func TestHashFNVMatchesStdlib(t *testing.T) {
	r := rng.New(6)
	for n := 0; n < 40; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		h := fnv.New64a()
		h.Write(b)
		if got, want := hashFNV(string(b)), h.Sum64(); got != want {
			t.Fatalf("hashFNV(%q) = %#x, want %#x", b, got, want)
		}
	}
}

// sortMinimizers is the sort-based minimizer selection the sketcher ran
// before its bounded insertion buffer, kept as the oracle: hash every
// k-mer, sort, and keep the n smallest distinct hashes.
func sortMinimizers(s dna.Strand, k, n int) []uint64 {
	if s.Len() < k {
		return []uint64{hashFNV(string(s))}
	}
	var hashes []uint64
	for i := 0; i+k <= s.Len(); i++ {
		hashes = append(hashes, hashFNV(string(s[i:i+k])))
	}
	slices.Sort(hashes)
	var sigs []uint64
	for i, h := range hashes {
		if i > 0 && h == hashes[i-1] {
			continue
		}
		sigs = append(sigs, h)
		if len(sigs) == n {
			break
		}
	}
	return sigs
}

// TestMinimizersMatchSortOracle checks the sketcher against the sort-based
// oracle over random strands, low-complexity strands full of repeated
// k-mers, strands shorter than k, and several k and n.
func TestMinimizersMatchSortOracle(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 2000; trial++ {
		k, n := 1+r.Intn(12), 1+r.Intn(10)
		sk := newSketcher(Config{K: k, Signatures: n})
		alpha := "ACGT"
		if trial%3 == 0 {
			alpha = "AC" // few distinct k-mers: duplicates everywhere
		}
		b := make([]byte, r.Intn(160))
		for i := range b {
			b[i] = alpha[r.Intn(len(alpha))]
		}
		s := dna.Strand(b)
		if got, want := sk.minimizers(s), sortMinimizers(s, k, n); !slices.Equal(got, want) {
			t.Fatalf("k=%d n=%d %q: minimizers %v, sort oracle %v", k, n, s, got, want)
		}
	}
}

func TestAssignToReferences(t *testing.T) {
	pool, _, refs := makePoolDataset(60, 6, 0.06, 5)
	clusters := Greedy(pool, Config{})
	ds := AssignToReferences(clusters, refs, 30)
	if ds.NumClusters() != 60 {
		t.Fatalf("got %d clusters", ds.NumClusters())
	}
	if ds.NumReads() < len(pool)*9/10 {
		t.Errorf("only %d of %d reads assigned", ds.NumReads(), len(pool))
	}
	// Reconstruction from the re-clustered data should be near the perfect
	// clustering's quality.
	out := recon.ReconstructDataset(recon.NewIterative(), ds)
	acc := metrics.ComputeAccuracy(ds.References(), out)
	if acc.PerStrand < 70 {
		t.Errorf("per-strand accuracy after re-clustering = %v", acc.PerStrand)
	}
}

func TestAssignDropsJunk(t *testing.T) {
	refs := channel.RandomReferences(5, 110, 7)
	junk := channel.RandomReferences(1, 110, 99)[0]
	clusters := [][]dna.Strand{{junk}, {}}
	ds := AssignToReferences(clusters, refs, 10)
	if ds.NumReads() != 0 {
		t.Errorf("junk read was assigned (%d reads)", ds.NumReads())
	}
}

func TestPurityErrors(t *testing.T) {
	if _, err := Purity(nil, nil); err == nil {
		t.Error("empty clustering accepted")
	}
	if _, err := Purity([][]int{{5}}, []int{0}); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestPurityMixedCluster(t *testing.T) {
	p, err := Purity([][]int{{0, 1, 2, 3}}, []int{7, 7, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.75 {
		t.Errorf("purity = %v, want 0.75", p)
	}
}

func TestLabeledPool(t *testing.T) {
	refs := channel.RandomReferences(3, 50, 8)
	sim := channel.Simulator{Channel: channel.NewNaive("n", channel.Rates{}), Coverage: channel.FixedCoverage(2)}
	ds := sim.Simulate("lp", refs, 9)
	pool, labels := LabeledPool(ds)
	if len(pool) != 6 || len(labels) != 6 {
		t.Fatalf("pool %d labels %d", len(pool), len(labels))
	}
	if labels[0] != 0 || labels[5] != 2 {
		t.Errorf("labels = %v", labels)
	}
}

// visitOrderNearest is the candidate scan GreedyIndices and
// AssignToReferences ran before their search was reordered, kept as the
// oracle: every strand the query's buckets list, once each in visit
// order, compared at threshold thr, the nearest kept, the first visited on
// ties. It also reports whether the ties were reordered: two or more
// candidates at the least distance, and one visited after the first of
// them sharing more minimizers with the query, so that a best-first search
// tests it before the one that must win.
func visitOrderNearest(query dna.Strand, sigs []uint64, buckets map[uint64][]int, strands []dna.Strand, thr int) (best int, reorderedTie bool) {
	var visited []int
	seen := map[int]bool{}
	for _, s := range sigs {
		for _, id := range buckets[s] {
			if !seen[id] {
				seen[id] = true
				visited = append(visited, id)
			}
		}
	}
	best, bestDist := -1, int(^uint(0)>>1)
	dist := make([]int, len(visited))
	for i, id := range visited {
		d, ok := align.DistanceAtMost(string(strands[id]), string(query), thr)
		if !ok {
			d = -1
		}
		dist[i] = d
		if ok && d < bestDist {
			best, bestDist = id, d
		}
	}
	shared := func(id int) int {
		n := 0
		for _, s := range sigs {
			if slices.Contains(buckets[s], id) {
				n++
			}
		}
		return n
	}
	first := -1
	for i, id := range visited {
		if best < 0 || dist[i] != bestDist {
			continue
		}
		if first < 0 {
			first = id
		} else if shared(id) > shared(first) {
			reorderedTie = true
		}
	}
	return best, reorderedTie
}

// greedyOracle is GreedyIndices over visitOrderNearest. It returns the
// clustering and the number of reads whose ties were reordered.
func greedyOracle(pool []dna.Strand, cfg Config) (clusters [][]int, reordered int) {
	var reps []dna.Strand
	buckets := make(map[uint64][]int)
	sk := newSketcher(cfg)
	for i, read := range pool {
		sigs := sk.minimizers(read)
		best, tie := visitOrderNearest(read, sigs, buckets, reps, cfg.threshold(read.Len()))
		if tie {
			reordered++
		}
		if best >= 0 {
			clusters[best] = append(clusters[best], i)
			for _, s := range sigs {
				if !containsID(buckets[s], best) {
					buckets[s] = append(buckets[s], best)
				}
			}
			continue
		}
		for _, s := range sigs {
			buckets[s] = append(buckets[s], len(reps))
		}
		reps = append(reps, read)
		clusters = append(clusters, []int{i})
	}
	return clusters, reordered
}

// assignOracle is AssignToReferences over visitOrderNearest. It returns
// the reference each cluster joins (-1 for none) and the number of
// clusters whose ties were reordered.
func assignOracle(clusters [][]dna.Strand, refs []dna.Strand, maxDist int) (assigned []int, reordered int) {
	sk := newSketcher(Config{})
	buckets := make(map[uint64][]int)
	for i, ref := range refs {
		for _, s := range sk.minimizers(ref) {
			buckets[s] = append(buckets[s], i)
		}
	}
	for _, members := range clusters {
		best := -1
		if len(members) > 0 {
			var tie bool
			best, tie = visitOrderNearest(members[0], sk.minimizers(members[0]), buckets, refs, maxDist)
			if tie {
				reordered++
			}
		}
		assigned = append(assigned, best)
	}
	return assigned, reordered
}

// tiePool is a seeded noisy pool built to make equal-distance ties: next
// to reads of random references at up to 6% error it holds near-duplicate
// variants of those references, each a few substitutions from its
// parent, so two variants often sit at the same distance from a read.
// It returns the shuffled pool and the variants.
func tiePool(seed uint64) (pool, variants []dna.Strand) {
	r := rng.New(seed)
	refs := channel.RandomReferences(30, 110, seed)
	for _, ref := range refs {
		for v := r.Intn(4); v > 0; v-- {
			b := []byte(ref)
			for s := 1 + r.Intn(3); s > 0; s-- {
				b[r.Intn(len(b))] = "ACGT"[r.Intn(4)]
			}
			variants = append(variants, dna.Strand(b))
		}
	}
	sim := channel.Simulator{
		Channel:  channel.NewNaive("n", channel.NanoporeMix(0.06*r.Float64())),
		Coverage: channel.FixedCoverage(1 + r.Intn(6)),
	}
	pool = append(sim.Simulate("ties", refs, seed+1).AllReads(rng.New(seed+2)), variants...)
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, variants
}

// TestNearestSearchMatchesVisitOrderOracle checks GreedyIndices and
// AssignToReferences, which test candidates best first under a shrinking
// bound, against the visit-order scan they replaced, over seeded noisy
// pools with near-duplicate strands and thresholds from 1 to the default.
// Both must pick the same candidate every time, including on ties the
// reordering tested out of visit order; the test counts those ties so that
// it cannot pass without them.
func TestNearestSearchMatchesVisitOrderOracle(t *testing.T) {
	greedyTies, assignTies := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		pool, variants := tiePool(seed)
		for _, thr := range []int{0, 1, 2, 4, 8} {
			cfg := Config{Threshold: thr}
			got := GreedyIndices(pool, cfg)
			want, tied := greedyOracle(pool, cfg)
			greedyTies += tied
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("seed %d threshold %d: GreedyIndices differs from the visit-order oracle", seed, thr)
			}
			clusters := Greedy(pool, cfg)
			for _, maxDist := range []int{-1, 2, 6, 30} {
				ds := AssignToReferences(clusters, variants, maxDist)
				assigned, tied := assignOracle(clusters, variants, maxDist)
				assignTies += tied
				for ri := range variants {
					var wantReads []dna.Strand
					for ci, a := range assigned {
						if a == ri {
							wantReads = append(wantReads, clusters[ci]...)
						}
					}
					if !slices.Equal(ds.Clusters[ri].Reads, wantReads) {
						t.Fatalf("seed %d threshold %d maxDist %d: reference %d got %d reads, oracle %d",
							seed, thr, maxDist, ri, len(ds.Clusters[ri].Reads), len(wantReads))
					}
				}
			}
		}
	}
	t.Logf("reordered ties: %d in GreedyIndices, %d in AssignToReferences", greedyTies, assignTies)
	if greedyTies == 0 || assignTies == 0 {
		t.Fatalf("reordered ties: %d in GreedyIndices, %d in AssignToReferences; want both > 0", greedyTies, assignTies)
	}
}
