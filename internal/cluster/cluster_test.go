package cluster

import (
	"hash/fnv"
	"slices"
	"testing"

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
