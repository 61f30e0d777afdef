// Package cluster implements the clustering step of the DNA storage read
// pipeline (§1.1.2, §3.1). The simulator's output is already grouped by
// reference ("perfect" or pseudo-clustering); this package additionally
// provides the *imperfect* regime: a shuffled, unlabeled read pool is
// re-clustered by sequence similarity, introducing the characteristic
// errors (fragmented and merged clusters) that a real pipeline's clustering
// stage would.
//
// The clusterer is a greedy single-pass algorithm in the spirit of
// Rashtchian et al. [18]: reads are bucketed by k-mer minimizer signatures
// so that only plausible neighbours are compared, and a read joins the
// existing cluster whose representative is nearest in edit distance, within
// a threshold (the earliest such cluster on ties).
package cluster

import (
	"fmt"
	"slices"

	"dnastore/internal/align"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
)

// Config parameterises the greedy clusterer. The zero value uses the
// defaults `dnastore get` clusters with.
type Config struct {
	// K is the k-mer length for minimizer signatures (default 10).
	K int
	// Signatures is how many minimizers (smallest k-mer hashes) each read
	// contributes to the bucket index (default 6).
	Signatures int
	// Threshold is the maximum edit distance between a read and a cluster
	// representative for the read to join (default: 25% of read length).
	Threshold int
}

func (c Config) k() int {
	if c.K <= 0 {
		return 10
	}
	return c.K
}

func (c Config) signatures() int {
	if c.Signatures <= 0 {
		return 6
	}
	return c.Signatures
}

func (c Config) threshold(readLen int) int {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return readLen / 4
}

// GreedyIndices clusters the pool and returns the member indices of each
// cluster, in pool order of first member. A read shorter than the k-mer
// length has one signature, the hash of the whole read, so it is compared
// only with identical short reads: those merge, empty reads included
// (their threshold is 0), and every other short read stays a singleton.
func GreedyIndices(pool []dna.Strand, cfg Config) [][]int {
	type clusterRec struct {
		rep     dna.Strand
		members []int
	}
	var clusters []clusterRec
	buckets := make(map[uint64][]int) // minimizer hash -> cluster ids
	sk := newSketcher(cfg)
	// seen[cid] == i+1 once read i has compared against cluster cid.
	var seen []int

	for i, read := range pool {
		sigs := sk.minimizers(read)
		thr := cfg.threshold(read.Len())
		best := -1
		bestDist := int(^uint(0) >> 1)
		for _, s := range sigs {
			for _, cid := range buckets[s] {
				if seen[cid] == i+1 {
					continue
				}
				seen[cid] = i + 1
				rep := clusters[cid].rep
				if d, ok := align.DistanceAtMost(string(rep), string(read), thr); ok && d < bestDist {
					best, bestDist = cid, d
				}
			}
		}
		if best >= 0 {
			clusters[best].members = append(clusters[best].members, i)
			// Register the new member's signatures too: later reads that
			// share no minimizer with the representative can still find
			// the cluster through this member.
			for _, s := range sigs {
				if !containsID(buckets[s], best) {
					buckets[s] = append(buckets[s], best)
				}
			}
			continue
		}
		cid := len(clusters)
		clusters = append(clusters, clusterRec{rep: read, members: []int{i}})
		seen = append(seen, 0)
		for _, s := range sigs {
			buckets[s] = append(buckets[s], cid)
		}
	}

	out := make([][]int, len(clusters))
	for i, c := range clusters {
		out[i] = c.members
	}
	return out
}

// Greedy clusters the pool and returns the member reads of each cluster.
func Greedy(pool []dna.Strand, cfg Config) [][]dna.Strand {
	idx := GreedyIndices(pool, cfg)
	out := make([][]dna.Strand, len(idx))
	for i, members := range idx {
		reads := make([]dna.Strand, len(members))
		for j, m := range members {
			reads[j] = pool[m]
		}
		out[i] = reads
	}
	return out
}

// sketcher computes minimizer signatures, reusing its buffer from read to
// read.
type sketcher struct {
	k, n int
	sigs []uint64
}

func newSketcher(cfg Config) *sketcher {
	return &sketcher{k: cfg.k(), n: cfg.signatures()}
}

// minimizers returns the n smallest distinct k-mer hashes of the strand in
// ascending order (fewer when the strand has fewer; the whole-strand hash
// when it is shorter than k). The result is valid until the next call.
//
// The hashes are kept in a sorted buffer of at most n slots: a hash no
// smaller than a full buffer's largest is rejected at once, any other is
// inserted in place unless already present. A read has about 130 k-mers
// and n is 6, so this beats sorting every hash.
func (sk *sketcher) minimizers(s dna.Strand) []uint64 {
	sigs := sk.sigs[:0]
	if s.Len() < sk.k {
		sk.sigs = append(sigs, hashFNV(string(s)))
		return sk.sigs
	}
	for i := 0; i+sk.k <= s.Len(); i++ {
		h := hashFNV(string(s[i : i+sk.k]))
		if len(sigs) == sk.n && h >= sigs[len(sigs)-1] {
			continue
		}
		pos, found := slices.BinarySearch(sigs, h)
		if found {
			continue
		}
		if len(sigs) < sk.n {
			sigs = append(sigs, 0)
		}
		copy(sigs[pos+1:], sigs[pos:len(sigs)-1])
		sigs[pos] = h
	}
	sk.sigs = sigs
	return sigs
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// hashFNV is the 64-bit FNV-1a hash of s, the value hash/fnv's New64a
// gives, computed without allocating a hasher.
func hashFNV(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// AssignToReferences maps unlabeled clusters back to reference strands for
// evaluation: each cluster is assigned to the reference nearest to its
// representative (first member); clusters beyond maxDist from every
// reference are dropped; multiple clusters mapping to one reference are
// merged. References attracting no cluster become erasures. The result is
// a Dataset comparable against the perfect clustering.
func AssignToReferences(clusters [][]dna.Strand, refs []dna.Strand, maxDist int) *dataset.Dataset {
	ds := &dataset.Dataset{Name: "reclustered", Clusters: make([]dataset.Cluster, len(refs))}
	for i, ref := range refs {
		ds.Clusters[i].Ref = ref
	}
	// Bucket references by minimizer for fast nearest lookup.
	sk := newSketcher(Config{})
	refBuckets := make(map[uint64][]int)
	for i, ref := range refs {
		for _, s := range sk.minimizers(ref) {
			refBuckets[s] = append(refBuckets[s], i)
		}
	}
	// seen[ri] == ci+1 once cluster ci has compared against reference ri.
	seen := make([]int, len(refs))
	for ci, members := range clusters {
		if len(members) == 0 {
			continue
		}
		rep := members[0]
		best, bestDist := -1, maxDist+1
		for _, s := range sk.minimizers(rep) {
			for _, ri := range refBuckets[s] {
				if seen[ri] == ci+1 {
					continue
				}
				seen[ri] = ci + 1
				if d, ok := align.DistanceAtMost(string(refs[ri]), string(rep), maxDist); ok && d < bestDist {
					best, bestDist = ri, d
				}
			}
		}
		if best < 0 {
			continue // junk cluster: not close to any reference
		}
		ds.Clusters[best].Reads = append(ds.Clusters[best].Reads, members...)
	}
	return ds
}

// Purity computes the weighted purity of a clustering against ground-truth
// labels: for each cluster, the fraction of members sharing the cluster's
// plurality label, weighted by cluster size. 1.0 is a perfect clustering.
func Purity(clusters [][]int, labels []int) (float64, error) {
	total, agree := 0, 0
	for _, members := range clusters {
		counts := map[int]int{}
		for _, m := range members {
			if m < 0 || m >= len(labels) {
				return 0, fmt.Errorf("cluster: member index %d out of label range", m)
			}
			counts[labels[m]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		total += len(members)
		agree += best
	}
	if total == 0 {
		return 0, fmt.Errorf("cluster: empty clustering")
	}
	return float64(agree) / float64(total), nil
}

// LabeledPool flattens a dataset into a read pool with ground-truth labels
// (the cluster index each read came from), optionally shuffled by the
// caller afterwards. It is the standard input for clustering evaluation.
func LabeledPool(ds *dataset.Dataset) (pool []dna.Strand, labels []int) {
	for i, c := range ds.Clusters {
		for _, r := range c.Reads {
			pool = append(pool, r)
			labels = append(labels, i)
		}
	}
	return pool, labels
}
