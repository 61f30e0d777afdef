// Package dataset defines the on-disk and in-memory representation of DNA
// storage experiments: reference strands and their clusters of noisy reads,
// together with the coverage-control protocols the paper's evaluation uses
// (§2.2.2 custom coverage, §3.2 fixed-coverage prefix subsampling).
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Cluster pairs one reference strand with the noisy reads attributed to it.
// An empty Reads slice is an erasure: the strand was lost entirely (failed
// PCR, coverage 0, or mis-clustering).
type Cluster struct {
	// Ref is the designed reference strand.
	Ref dna.Strand
	// Reads are the noisy copies, in sequencing order.
	Reads []dna.Strand
}

// Coverage returns the number of noisy reads in the cluster.
func (c Cluster) Coverage() int { return len(c.Reads) }

// Dataset is an ordered list of clusters. Order is meaningful: the i-th
// cluster corresponds to the i-th reference strand, which is the "perfect
// clustering" (pseudo-clustering) regime of §3.1.
type Dataset struct {
	// Name labels the dataset in tables ("Nanopore", "Naive Simulator", ...).
	Name string
	// Clusters holds one entry per reference strand.
	Clusters []Cluster
}

// NumClusters returns the number of clusters (including erasures).
func (d *Dataset) NumClusters() int { return len(d.Clusters) }

// NumReads returns the total number of noisy reads across all clusters.
func (d *Dataset) NumReads() int {
	n := 0
	for _, c := range d.Clusters {
		n += len(c.Reads)
	}
	return n
}

// MeanCoverage returns reads-per-cluster; 0 for an empty dataset.
func (d *Dataset) MeanCoverage() float64 {
	if len(d.Clusters) == 0 {
		return 0
	}
	return float64(d.NumReads()) / float64(len(d.Clusters))
}

// Erasures returns the number of clusters with zero reads.
func (d *Dataset) Erasures() int {
	n := 0
	for _, c := range d.Clusters {
		if len(c.Reads) == 0 {
			n++
		}
	}
	return n
}

// Coverages returns the per-cluster coverage vector, in cluster order. This
// is the "custom coverage" input of Table 2.1: simulating a dataset whose
// i-th cluster has exactly as many reads as the real data's i-th cluster.
func (d *Dataset) Coverages() []int {
	out := make([]int, len(d.Clusters))
	for i, c := range d.Clusters {
		out[i] = c.Coverage()
	}
	return out
}

// References returns the reference strands in cluster order.
func (d *Dataset) References() []dna.Strand {
	out := make([]dna.Strand, len(d.Clusters))
	for i, c := range d.Clusters {
		out[i] = c.Ref
	}
	return out
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Name: d.Name, Clusters: make([]Cluster, len(d.Clusters))}
	for i, c := range d.Clusters {
		reads := make([]dna.Strand, len(c.Reads))
		copy(reads, c.Reads)
		out.Clusters[i] = Cluster{Ref: c.Ref, Reads: reads}
	}
	return out
}

// Validate checks every strand in the dataset for alphabet violations.
func (d *Dataset) Validate() error {
	for i, c := range d.Clusters {
		if err := c.Ref.Validate(); err != nil {
			return fmt.Errorf("cluster %d reference: %w", i, err)
		}
		for j, r := range c.Reads {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("cluster %d read %d: %w", i, j, err)
			}
		}
	}
	return nil
}

// ShuffleReads permutes the reads inside every cluster, using the §3.2
// protocol's first step ("all clusters were shuffled") so that prefix
// subsampling draws an unbiased sample.
func (d *Dataset) ShuffleReads(r *rng.RNG) {
	for i := range d.Clusters {
		reads := d.Clusters[i].Reads
		r.Shuffle(len(reads), func(a, b int) {
			reads[a], reads[b] = reads[b], reads[a]
		})
	}
}

// SubsampleFixed implements the fixed-coverage protocol of §3.2: clusters
// with coverage below minCoverage are discarded; each remaining cluster
// keeps exactly its first n reads. Because higher coverages differ from
// lower ones only in the extra copies chosen, accuracies across n values
// share the same underlying error profile. Callers wanting the paper's
// exact protocol should ShuffleReads first and reuse the same shuffled
// dataset for every n.
func (d *Dataset) SubsampleFixed(n, minCoverage int) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: subsample coverage must be positive, got %d", n)
	}
	if n > minCoverage {
		return nil, fmt.Errorf("dataset: subsample coverage %d exceeds minimum cluster coverage %d", n, minCoverage)
	}
	out := &Dataset{Name: d.Name}
	for _, c := range d.Clusters {
		if c.Coverage() < minCoverage {
			continue
		}
		reads := make([]dna.Strand, n)
		copy(reads, c.Reads[:n])
		out.Clusters = append(out.Clusters, Cluster{Ref: c.Ref, Reads: reads})
	}
	return out, nil
}

// AllReads returns every read in the dataset as a flat shuffled pool, the
// "imperfect clustering" input of §3.1 handed to a clustering algorithm.
func (d *Dataset) AllReads(r *rng.RNG) []dna.Strand {
	var pool []dna.Strand
	for _, c := range d.Clusters {
		pool = append(pool, c.Reads...)
	}
	if r != nil {
		r.Shuffle(len(pool), func(a, b int) {
			pool[a], pool[b] = pool[b], pool[a]
		})
	}
	return pool
}

// Stats summarises a dataset for reports and CLIs.
type Stats struct {
	Name         string
	NumClusters  int
	NumReads     int
	MeanCoverage float64
	MinCoverage  int
	MaxCoverage  int
	Erasures     int
	RefLength    int // length of the first reference (0 if empty)
}

// ComputeStats returns summary statistics for the dataset.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{
		Name:         d.Name,
		NumClusters:  d.NumClusters(),
		NumReads:     d.NumReads(),
		MeanCoverage: d.MeanCoverage(),
		Erasures:     d.Erasures(),
	}
	if len(d.Clusters) > 0 {
		s.RefLength = d.Clusters[0].Ref.Len()
		s.MinCoverage = d.Clusters[0].Coverage()
		for _, c := range d.Clusters {
			cov := c.Coverage()
			if cov < s.MinCoverage {
				s.MinCoverage = cov
			}
			if cov > s.MaxCoverage {
				s.MaxCoverage = cov
			}
		}
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d clusters, %d reads, coverage mean %.2f [%d,%d], %d erasures, ref len %d",
		s.Name, s.NumClusters, s.NumReads, s.MeanCoverage, s.MinCoverage, s.MaxCoverage, s.Erasures, s.RefLength)
}

// clusterSeparator delimits clusters in the text format, mirroring the
// "evyat" layout used by the trace-reconstruction literature: the reference
// strand, a separator line of asterisks, the noisy copies, then a blank line.
const clusterSeparator = "*****************************"

// writeChunk is the size of the chunks Write and WriteRefs hand their
// writer.
const writeChunk = 64 << 10

// appendCluster appends c's encoding in the cluster text format to b.
func appendCluster(b []byte, c Cluster) []byte {
	b = append(b, c.Ref...)
	b = append(b, '\n')
	b = append(b, clusterSeparator...)
	b = append(b, '\n')
	for _, r := range c.Reads {
		b = append(b, r...)
		b = append(b, '\n')
	}
	return append(b, '\n')
}

// encodedSize returns the exact length of the dataset's encoding and of its
// largest cluster's. It refuses an empty strand, which the format cannot
// carry: an empty read's blank line would end its cluster, and an empty
// reference's would be skipped, leaving the separator where the reference
// belongs.
func (d *Dataset) encodedSize() (total, largest int, err error) {
	for i, c := range d.Clusters {
		if len(c.Ref) == 0 {
			return 0, 0, fmt.Errorf("dataset: cluster %d reference is empty and cannot be encoded", i)
		}
		n := len(c.Ref) + len(clusterSeparator) + 3
		for j, r := range c.Reads {
			if len(r) == 0 {
				return 0, 0, fmt.Errorf("dataset: cluster %d read %d is an empty read and cannot be encoded", i, j)
			}
			n += len(r) + 1
		}
		total += n
		largest = max(largest, n)
	}
	return total, largest, nil
}

// AppendText appends the dataset's encoding in the cluster text format to
// b, growing b once to the exact size. It has encoding.TextAppender's
// signature.
func (d *Dataset) AppendText(b []byte) ([]byte, error) {
	total, _, err := d.encodedSize()
	if err != nil {
		return b, err
	}
	if cap(b)-len(b) < total {
		b = append(make([]byte, 0, len(b)+total), b...)
	}
	for _, c := range d.Clusters {
		b = appendCluster(b, c)
	}
	return b, nil
}

// Write serialises the dataset in the cluster text format. It checks the
// whole dataset before writing a byte, then hands w chunks of at least
// 64 KiB (the last may be shorter), each ending on a cluster boundary, from
// one buffer sized to a chunk plus the largest cluster.
func (d *Dataset) Write(w io.Writer) error {
	total, largest, err := d.encodedSize()
	if err != nil {
		return err
	}
	return writeChunked(w, d.Clusters, min(total, writeChunk+largest), appendCluster)
}

// writeChunked appends each item to one buffer, made with capacity size,
// and hands w the buffer whenever it holds writeChunk bytes or more, then
// the rest.
func writeChunked[T any](w io.Writer, items []T, size int, appendItem func([]byte, T) []byte) error {
	buf := make([]byte, 0, size)
	for _, it := range items {
		buf = appendItem(buf, it)
		if len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// Read parses a dataset from the cluster text format produced by Write.
func Read(rd io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	d := &Dataset{}
	var cur *Cluster
	expectSep := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case expectSep:
			if text != clusterSeparator {
				return nil, fmt.Errorf("dataset: line %d: expected separator after reference", line)
			}
			expectSep = false
		case text == "":
			if cur != nil {
				d.Clusters = append(d.Clusters, *cur)
				cur = nil
			}
		case cur == nil:
			s := dna.Strand(text)
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", line, err)
			}
			cur = &Cluster{Ref: s}
			expectSep = true
		default:
			s := dna.Strand(text)
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", line, err)
			}
			cur.Reads = append(cur.Reads, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if expectSep {
		return nil, fmt.Errorf("dataset: truncated input: reference without separator")
	}
	if cur != nil {
		d.Clusters = append(d.Clusters, *cur)
	}
	return d, nil
}

// WriteRefs writes one reference strand per line, in chunks of at least
// 64 KiB (the last may be shorter). It checks every strand before writing a
// byte and refuses an empty one, as encodedSize does: ReadRefs skips its
// blank line, so every later strand would read back one line early.
func WriteRefs(w io.Writer, refs []dna.Strand) error {
	for i, s := range refs {
		if len(s) == 0 {
			return fmt.Errorf("dataset: strand %d is empty and cannot be encoded", i)
		}
	}
	return writeChunked(w, refs, writeChunk, func(b []byte, s dna.Strand) []byte {
		return append(append(b, s...), '\n')
	})
}

// ReadRefs parses one reference strand per line, skipping blank lines.
func ReadRefs(rd io.Reader) ([]dna.Strand, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var refs []dna.Strand
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		s := dna.Strand(text)
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		refs = append(refs, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return refs, nil
}
