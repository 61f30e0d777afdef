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
	var (
		reps    []dna.Strand // reps[cid] is cluster cid's first member
		members [][]int
	)
	buckets := make(map[uint64][]int) // minimizer hash -> cluster ids
	sk := newSketcher(cfg)
	var ns nearestSearch

	for i, read := range pool {
		sigs := sk.minimizers(read)
		if best := ns.find(read, sigs, buckets, reps, cfg.threshold(read.Len())); best >= 0 {
			members[best] = append(members[best], i)
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
		cid := len(reps)
		reps = append(reps, read)
		members = append(members, []int{i})
		for _, s := range sigs {
			buckets[s] = append(buckets[s], cid)
		}
	}
	return members
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

// nearestSearch finds, for one query strand at a time, the candidate
// nearest to it in edit distance among the strands that share a minimizer
// bucket with it. Candidates are the ids the query's buckets list, each
// once, in visit order: signature by signature, bucket order within each.
// The answer is the candidate at the least distance within the threshold,
// the first visited on ties: the one a scan in visit order keeps when it
// replaces its best only on a strictly smaller distance.
//
// The search reaches that answer faster than such a scan, exactly:
//   - the query is prepared once as an align.Pattern and every candidate
//     is scanned against it;
//   - each call is bounded by the best so far: bestDist−1 for a candidate
//     visited after the best, which must beat it strictly, but bestDist
//     for one visited before it, which wins a tie. A candidate that the
//     bound rejects could not have replaced the best, so the answer does
//     not depend on the order the candidates are tested in;
//   - so they are tested in order of shared minimizers, most first
//     (stable, so visit order breaks equal counts): a candidate sharing
//     more minimizers tends to be nearer, and a near best found early
//     makes the remaining calls cheap misses.
type nearestSearch struct {
	pat   align.Pattern
	stamp int
	// mark[id] == stamp once id is a candidate of the current query, and
	// slot[id] is then its index in cands.
	mark, slot []int
	cands      []candidate
}

// candidate is one strand the query's buckets list: its index, its rank
// in visit order and how many of the query's signatures file it.
type candidate struct {
	id, visit, shared int
}

// find returns the index into strands of the candidate nearest to query
// within thr edits, or -1 when no candidate is that close. buckets maps
// each of the query's signatures sigs to the indices of the strands filed
// under it.
func (ns *nearestSearch) find(query dna.Strand, sigs []uint64, buckets map[uint64][]int, strands []dna.Strand, thr int) int {
	if n := len(strands); len(ns.mark) < n {
		ns.mark = append(ns.mark, make([]int, n-len(ns.mark))...)
		ns.slot = append(ns.slot, make([]int, n-len(ns.slot))...)
	}
	ns.stamp++
	cands := ns.cands[:0]
	for _, s := range sigs {
		for _, id := range buckets[s] {
			if ns.mark[id] == ns.stamp {
				cands[ns.slot[id]].shared++
				continue
			}
			ns.mark[id], ns.slot[id] = ns.stamp, len(cands)
			cands = append(cands, candidate{id: id, visit: len(cands), shared: 1})
		}
	}
	ns.cands = cands
	slices.SortStableFunc(cands, func(a, b candidate) int { return b.shared - a.shared })

	best, bestDist, bestVisit := -1, 0, 0
	if len(cands) > 0 {
		ns.pat.Reset(string(query))
	}
	for _, c := range cands {
		bound := thr
		switch {
		case best < 0:
		case c.visit < bestVisit:
			bound = bestDist
		default:
			bound = bestDist - 1
		}
		if d, ok := ns.pat.DistanceAtMost(string(strands[c.id]), bound); ok {
			best, bestDist, bestVisit = c.id, d, c.visit
		}
	}
	return best
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
	var ns nearestSearch
	for _, members := range clusters {
		if len(members) == 0 {
			continue
		}
		rep := members[0]
		best := ns.find(rep, sk.minimizers(rep), refBuckets, refs, maxDist)
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
