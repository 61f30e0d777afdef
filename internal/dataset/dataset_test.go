package dataset

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func sample() *Dataset {
	return &Dataset{
		Name: "test",
		Clusters: []Cluster{
			{Ref: "ACGT", Reads: []dna.Strand{"ACGT", "ACG", "AACGT"}},
			{Ref: "TTTT", Reads: []dna.Strand{"TTT"}},
			{Ref: "GGGG", Reads: nil}, // erasure
		},
	}
}

func TestBasicStats(t *testing.T) {
	d := sample()
	if d.NumClusters() != 3 {
		t.Errorf("NumClusters = %d", d.NumClusters())
	}
	if d.NumReads() != 4 {
		t.Errorf("NumReads = %d", d.NumReads())
	}
	if d.Erasures() != 1 {
		t.Errorf("Erasures = %d", d.Erasures())
	}
	if got := d.MeanCoverage(); got != 4.0/3.0 {
		t.Errorf("MeanCoverage = %v", got)
	}
	s := d.ComputeStats()
	if s.MinCoverage != 0 || s.MaxCoverage != 3 || s.RefLength != 4 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "3 clusters") {
		t.Errorf("stats string = %q", s.String())
	}
}

func TestEmptyDataset(t *testing.T) {
	d := &Dataset{}
	if d.MeanCoverage() != 0 {
		t.Error("empty mean coverage != 0")
	}
	s := d.ComputeStats()
	if s.NumClusters != 0 || s.RefLength != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestCoveragesAndReferences(t *testing.T) {
	d := sample()
	if got := d.Coverages(); got[0] != 3 || got[1] != 1 || got[2] != 0 {
		t.Errorf("Coverages = %v", got)
	}
	refs := d.References()
	if refs[1] != "TTTT" {
		t.Errorf("References = %v", refs)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sample()
	c := d.Clone()
	c.Clusters[0].Reads[0] = "TTTT"
	if d.Clusters[0].Reads[0] != "ACGT" {
		t.Error("Clone shares read storage")
	}
}

func TestValidate(t *testing.T) {
	d := sample()
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	d.Clusters[0].Reads[1] = "ACGN"
	if err := d.Validate(); err == nil {
		t.Error("invalid read accepted")
	}
	d = sample()
	d.Clusters[2].Ref = "XXXX"
	if err := d.Validate(); err == nil {
		t.Error("invalid ref accepted")
	}
}

func TestSubsampleFixed(t *testing.T) {
	d := &Dataset{
		Clusters: []Cluster{
			{Ref: "AAAA", Reads: []dna.Strand{"A1", "A2", "A3"}},
			{Ref: "CCCC", Reads: []dna.Strand{"C1", "C2"}},
			{Ref: "GGGG", Reads: []dna.Strand{"G1", "G2", "G3", "G4"}},
		},
	}
	// Deliberately use non-DNA read placeholders; SubsampleFixed must not
	// validate, only slice.
	out, err := d.SubsampleFixed(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumClusters() != 2 {
		t.Fatalf("kept %d clusters, want 2", out.NumClusters())
	}
	for _, c := range out.Clusters {
		if c.Coverage() != 2 {
			t.Errorf("cluster coverage = %d, want 2", c.Coverage())
		}
	}
	// Prefix property: first reads are retained in order.
	if out.Clusters[0].Reads[0] != "A1" || out.Clusters[0].Reads[1] != "A2" {
		t.Errorf("prefix not preserved: %v", out.Clusters[0].Reads)
	}
}

func TestSubsampleFixedErrors(t *testing.T) {
	d := sample()
	if _, err := d.SubsampleFixed(0, 5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := d.SubsampleFixed(6, 5); err == nil {
		t.Error("n > minCoverage accepted")
	}
}

func TestSubsamplePrefixConsistency(t *testing.T) {
	// §3.2: coverage n and n+1 subsamples share the first n reads.
	r := rng.New(3)
	d := &Dataset{}
	for i := 0; i < 20; i++ {
		var reads []dna.Strand
		for j := 0; j < 10+r.Intn(5); j++ {
			reads = append(reads, dna.Strand("ACGT"))
		}
		d.Clusters = append(d.Clusters, Cluster{Ref: "ACGT", Reads: reads})
	}
	d.ShuffleReads(r)
	s5, err := d.SubsampleFixed(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	s6, err := d.SubsampleFixed(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s5.Clusters {
		for j := 0; j < 5; j++ {
			if s5.Clusters[i].Reads[j] != s6.Clusters[i].Reads[j] {
				t.Fatal("prefix reads differ between coverages")
			}
		}
	}
}

func TestShuffleReadsPreservesMultiset(t *testing.T) {
	d := sample()
	before := map[dna.Strand]int{}
	for _, c := range d.Clusters {
		for _, r := range c.Reads {
			before[r]++
		}
	}
	d.ShuffleReads(rng.New(1))
	after := map[dna.Strand]int{}
	for _, c := range d.Clusters {
		for _, r := range c.Reads {
			after[r]++
		}
	}
	if len(before) != len(after) {
		t.Fatal("shuffle changed read multiset")
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("shuffle changed count of %q", k)
		}
	}
}

func TestAllReads(t *testing.T) {
	d := sample()
	pool := d.AllReads(nil)
	if len(pool) != 4 {
		t.Errorf("AllReads returned %d", len(pool))
	}
	pool2 := d.AllReads(rng.New(9))
	if len(pool2) != 4 {
		t.Errorf("shuffled AllReads returned %d", len(pool2))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters() != d.NumClusters() {
		t.Fatalf("round trip clusters = %d, want %d", got.NumClusters(), d.NumClusters())
	}
	for i := range d.Clusters {
		if got.Clusters[i].Ref != d.Clusters[i].Ref {
			t.Errorf("cluster %d ref mismatch", i)
		}
		if len(got.Clusters[i].Reads) != len(d.Clusters[i].Reads) {
			t.Errorf("cluster %d read count mismatch", i)
			continue
		}
		for j := range d.Clusters[i].Reads {
			if got.Clusters[i].Reads[j] != d.Clusters[i].Reads[j] {
				t.Errorf("cluster %d read %d mismatch", i, j)
			}
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"ACGT\nnot-a-separator\nACG\n",
		"ACGT\n",
		"ACGN\n*****************************\n",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("malformed input accepted: %q", c)
		}
	}
}

func TestReadLastClusterWithoutTrailingBlank(t *testing.T) {
	in := "ACGT\n*****************************\nACG\nACGT"
	d, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumClusters() != 1 || d.Clusters[0].Coverage() != 2 {
		t.Errorf("parsed %+v", d)
	}
}

func TestRefsRoundTrip(t *testing.T) {
	refs := []dna.Strand{"ACGT", "TTTT", "GATTACA"}
	var buf bytes.Buffer
	if err := WriteRefs(&buf, refs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRefs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("got %d refs", len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d = %q, want %q", i, got[i], refs[i])
		}
	}
}

func TestReadRefsSkipsBlanksAndValidates(t *testing.T) {
	got, err := ReadRefs(strings.NewReader("ACGT\n\n\nTT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d refs", len(got))
	}
	if _, err := ReadRefs(strings.NewReader("ACGZ\n")); err == nil {
		t.Error("invalid ref accepted")
	}
}

// TestWriteRefusesEmptyStrand: the format cannot carry an empty read (its
// blank line ends the cluster early) or an empty reference (a blank line
// where the reference belongs is skipped, so the separator is parsed as
// one). Write and AppendText refuse both, naming the cluster and the read;
// Write does so before it writes a byte, so an atomic file write leaves
// nothing behind.
func TestWriteRefusesEmptyStrand(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *Dataset
		want string
	}{
		{"read", &Dataset{Clusters: []Cluster{
			{Ref: "ACGT", Reads: []dna.Strand{"ACGT"}},
			{Ref: "TTA", Reads: []dna.Strand{"TTA", "", "TA"}},
		}}, "cluster 1 read 1"},
		{"reference", &Dataset{Clusters: []Cluster{
			{Ref: "ACGT", Reads: []dna.Strand{"ACGT"}},
			{Ref: "", Reads: []dna.Strand{"A"}},
		}}, "cluster 1 reference"},
	} {
		var buf bytes.Buffer
		err := tc.d.Write(&buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Write error = %v, want one naming %q", tc.name, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: Write wrote %d bytes before failing", tc.name, buf.Len())
		}
		b, err := tc.d.AppendText([]byte("x"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: AppendText error = %v, want one naming %q", tc.name, err, tc.want)
		}
		if string(b) != "x" {
			t.Errorf("%s: AppendText returned %q, want its input", tc.name, b)
		}
	}
}

// TestWriteRefsRefusesEmptyStrand: an empty strand's blank line would be
// skipped by ReadRefs, misaligning every later strand, so WriteRefs must
// refuse it by index before writing anything.
func TestWriteRefsRefusesEmptyStrand(t *testing.T) {
	var buf bytes.Buffer
	err := WriteRefs(&buf, []dna.Strand{"ACGTAACGAC", "", "TTTTAAAACC"})
	if err == nil || !strings.Contains(err.Error(), "strand 1 is empty") {
		t.Errorf("WriteRefs error = %v, want one naming strand 1", err)
	}
	if buf.Len() != 0 {
		t.Errorf("WriteRefs wrote %d bytes before failing", buf.Len())
	}
}

// randomDataset returns n clusters of 110-base references, each with 0 to
// 20 reads of 100 to 120 bases.
func randomDataset(n int, seed uint64) *Dataset {
	r := rng.New(seed)
	strand := func(l int) dna.Strand {
		b := make([]byte, l)
		for i := range b {
			b[i] = "ACGT"[r.Intn(4)]
		}
		return dna.Strand(b)
	}
	d := &Dataset{Clusters: make([]Cluster, n)}
	for i := range d.Clusters {
		c := Cluster{Ref: strand(110)}
		for j := r.Intn(21); j > 0; j-- {
			c.Reads = append(c.Reads, strand(100+r.Intn(21)))
		}
		d.Clusters[i] = c
	}
	return d
}

// TestAppendTextMatchesWrite: the exact-size append and the chunked stream
// are one encoding, also across chunk boundaries and onto a non-empty
// prefix, and Write hands its writer whole chunks.
func TestAppendTextMatchesWrite(t *testing.T) {
	d := randomDataset(1000, 3)
	var buf bytes.Buffer
	cw := &chunkRecorder{w: &buf}
	if err := d.Write(cw); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2*writeChunk {
		t.Fatalf("dataset encodes to %d bytes, too few to span chunks", buf.Len())
	}
	for i, n := range cw.sizes[:len(cw.sizes)-1] {
		if n < writeChunk {
			t.Errorf("write %d handed %d bytes, want at least %d", i, n, writeChunk)
		}
	}
	got, err := d.AppendText([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "prefix"+buf.String() {
		t.Error("AppendText differs from Write")
	}
	if cap(got) != len(got) {
		t.Errorf("AppendText grew to cap %d for %d bytes", cap(got), len(got))
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDatasets(back, d) {
		t.Error("Write→Read changed the dataset")
	}
}

// chunkRecorder records the size of every write.
type chunkRecorder struct {
	w     io.Writer
	sizes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.w.Write(p)
}

// TestEncodeAllocs gates the encoder's allocations exactly: Write's one
// chunk buffer and AppendText's one exact-size result. A per-read
// formatting call would show here as hundreds of thousands.
func TestEncodeAllocs(t *testing.T) {
	d := randomDataset(1000, 5)
	if a := testing.AllocsPerRun(20, func() {
		if err := d.Write(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("%v allocs per Write, want at most 1", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := d.AppendText(nil); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Errorf("%v allocs per AppendText(nil), want 1", a)
	}
}

// equalDatasets reports whether a and b hold the same clusters, counting
// a nil and an empty read list as equal.
func equalDatasets(a, b *Dataset) bool {
	if len(a.Clusters) != len(b.Clusters) {
		return false
	}
	for i, c := range a.Clusters {
		if c.Ref != b.Clusters[i].Ref || !slices.Equal(c.Reads, b.Clusters[i].Reads) {
			return false
		}
	}
	return true
}
