package metrics

import (
	"fmt"

	"dnastore/internal/align"
	"dnastore/internal/dataset"
)

// Dataset-level distances: the direct simulator-evaluation metrics §3.1
// enumerates before settling on reconstruction accuracy — normalized edit
// distance between corresponding clusters (option 2), gestalt similarity
// (option 3), and χ² distance between error statistics (option 1, via
// ChiSquare over profile histograms). They quantify how far a simulated
// dataset sits from a reference dataset without running any reconstruction.

// ClusterDistance summarises the pairwise comparison of two datasets'
// clusters.
type ClusterDistance struct {
	// MeanNormEdit is the mean Levenshtein distance between sampled read
	// pairs of corresponding clusters, normalised by reference length.
	MeanNormEdit float64
	// MeanGestalt is the mean Ratcliff–Obershelp similarity of the same
	// pairs (1 = identical).
	MeanGestalt float64
	// Pairs is the number of read pairs compared.
	Pairs int
}

// String renders the distance summary.
func (d ClusterDistance) String() string {
	return fmt.Sprintf("norm-edit %.4f, gestalt %.4f (n=%d)", d.MeanNormEdit, d.MeanGestalt, d.Pairs)
}

// CompareDatasets compares corresponding clusters of two datasets (same
// reference order, as produced by simulating on a real dataset's
// references): up to maxPerCluster read pairs per cluster are compared
// positionally. It returns an error when the datasets' cluster counts
// differ or no pairs exist.
func CompareDatasets(a, b *dataset.Dataset, maxPerCluster int) (ClusterDistance, error) {
	if a.NumClusters() != b.NumClusters() {
		return ClusterDistance{}, fmt.Errorf("metrics: cluster counts differ: %d vs %d", a.NumClusters(), b.NumClusters())
	}
	if maxPerCluster <= 0 {
		maxPerCluster = 3
	}
	var sumEdit, sumGestalt float64
	pairs := 0
	for i := range a.Clusters {
		ca, cb := a.Clusters[i], b.Clusters[i]
		if ca.Ref != cb.Ref {
			return ClusterDistance{}, fmt.Errorf("metrics: cluster %d references differ", i)
		}
		n := len(ca.Reads)
		if len(cb.Reads) < n {
			n = len(cb.Reads)
		}
		if n > maxPerCluster {
			n = maxPerCluster
		}
		refLen := ca.Ref.Len()
		if refLen == 0 {
			continue
		}
		for k := 0; k < n; k++ {
			ra, rb := string(ca.Reads[k]), string(cb.Reads[k])
			sumEdit += float64(align.Distance(ra, rb)) / float64(refLen)
			sumGestalt += align.GestaltScore(ra, rb)
			pairs++
		}
	}
	if pairs == 0 {
		return ClusterDistance{}, fmt.Errorf("metrics: no comparable read pairs")
	}
	return ClusterDistance{
		MeanNormEdit: sumEdit / float64(pairs),
		MeanGestalt:  sumGestalt / float64(pairs),
		Pairs:        pairs,
	}, nil
}

// ReadLengthHistogram returns the distribution of read lengths in a
// dataset, as a map from length to count — a cheap shape statistic that
// separates deletion-heavy channels from insertion-heavy ones.
func ReadLengthHistogram(ds *dataset.Dataset) map[int]int {
	h := make(map[int]int)
	for _, c := range ds.Clusters {
		for _, r := range c.Reads {
			h[r.Len()]++
		}
	}
	return h
}

// LengthHistogramDistance returns the χ² distance between the read-length
// distributions of two datasets, after normalising each to sum 1.
//
// Datasets with zero reads get defined results instead of the ambiguous
// values a blind 0/0 normalisation path would produce: two empty datasets
// are identical (distance 0), and an empty dataset against a non-empty one
// is maximally distant (1, the χ² supremum for distributions with disjoint
// support). The result is never NaN.
func LengthHistogramDistance(a, b *dataset.Dataset) float64 {
	ha, hb := ReadLengthHistogram(a), ReadLengthHistogram(b)
	na, nb := 0, 0
	for _, c := range ha {
		na += c
	}
	for _, c := range hb {
		nb += c
	}
	switch {
	case na == 0 && nb == 0:
		return 0
	case na == 0 || nb == 0:
		return 1
	}
	maxLen := 0
	for l := range ha {
		if l > maxLen {
			maxLen = l
		}
	}
	for l := range hb {
		if l > maxLen {
			maxLen = l
		}
	}
	va := make([]float64, maxLen+1)
	vb := make([]float64, maxLen+1)
	for l, c := range ha {
		va[l] = float64(c)
	}
	for l, c := range hb {
		vb[l] = float64(c)
	}
	return ChiSquare(Normalize(va), Normalize(vb))
}
