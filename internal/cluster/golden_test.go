package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// storePool builds the read pool one `dnastore get` clusters: nine 1 KiB
// objects under their own primers in the archive layout the end-to-end
// benchmark stores, sequenced through NanoporeMix(0.02) at NegBin(14, 6)
// coverage, then PCR-selected by the first object's primer.
func storePool(tb testing.TB, seed uint64) []dna.Strand {
	tb.Helper()
	arch := codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6}
	r := rng.New(seed)
	primers, err := codec.GeneratePrimers(9, codec.PrimerConfig{}, r)
	if err != nil {
		tb.Fatal(err)
	}
	var designed []dna.Strand
	for _, p := range primers {
		data := make([]byte, 1024)
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		strands, err := arch.Encode(data)
		if err != nil {
			tb.Fatal(err)
		}
		designed = append(designed, codec.Tag(p, strands)...)
	}
	sim := channel.Simulator{
		Channel:  channel.NewNaive("sequencer", channel.NanoporeMix(0.02)),
		Coverage: channel.NegBinCoverage{Mean: 14, Dispersion: 6},
	}
	reads := sim.Simulate("pool", designed, seed+1).AllReads(rng.New(seed + 2))
	return codec.SelectAmplify(reads, primers[0], 3)
}

// indicesDigest is the SHA-256 of a clustering: every cluster's size, then
// its member indices in order.
func indicesDigest(clusters [][]int) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	put := func(v int) { h.Write(buf[:binary.PutUvarint(buf[:], uint64(v))]) }
	for _, c := range clusters {
		put(len(c))
		for _, m := range c {
			put(m)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// datasetDigest is the SHA-256 of a dataset's references and their reads
// in order.
func datasetDigest(ds *dataset.Dataset) string {
	h := sha256.New()
	for _, c := range ds.Clusters {
		h.Write([]byte(c.Ref))
		h.Write([]byte{'\n'})
		for _, r := range c.Reads {
			h.Write([]byte(r))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte("***\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGreedyGolden pins every clustering bit for bit: bucket contents,
// visit order and tie-breaks all reach the digest, so a faster distance
// kernel or index must reproduce them exactly.
func TestGreedyGolden(t *testing.T) {
	cases := []struct {
		name  string
		pool  func() []dna.Strand
		reads int
		want  string
	}{
		{"store-seed1", func() []dna.Strand { return storePool(t, 1) }, 1155, "dd2a2d34b55e8f1753039906b479bbe2d3d72ee5a6c9883d3aa422f0247fc2ff"},
		{"store-seed2", func() []dna.Strand { return storePool(t, 2) }, 1270, "4320c409f9cb546438e093c8cd8ef2cee8c9fbf56afa64721dc631972a718217"},
		{"store-seed3", func() []dna.Strand { return storePool(t, 3) }, 1136, "fa760d5ffba3455a470c5568f4adddfc9a10421867b76b85c04be71e4aa00ba3"},
		{"noisy-80x8", func() []dna.Strand { p, _, _ := makePoolDataset(80, 8, 0.06, 3); return p }, 640, "0f3ede7f096cea0679fa341be14887d2a1f7ba85c2295e9acb77bd9418459fec"},
		{"noisy-60x6", func() []dna.Strand { p, _, _ := makePoolDataset(60, 6, 0.06, 5); return p }, 360, "9869f92a47da50d9f596a6b16f8b9c93bff5f77f643152b13188b22369012357"},
		{"short-and-empty", func() []dna.Strand {
			return []dna.Strand{"ACG", "", "ACG", "TGCA", "", "ACGTACGTA", "ACGTACGTT", "TGCA", "NNACGT"}
		}, 9, "642076b1cd273027c35bd6c200a43c691479df8b7bfb677cdeccea194d2effa5"},
	}
	for _, c := range cases {
		pool := c.pool()
		got := indicesDigest(GreedyIndices(pool, Config{}))
		if len(pool) != c.reads || got != c.want {
			t.Errorf("%s: %d reads, digest %s; want %d reads, %s", c.name, len(pool), got, c.reads, c.want)
		}
	}
}

// TestAssignToReferencesGolden pins the reference assignment of a noisy
// re-clustering.
func TestAssignToReferencesGolden(t *testing.T) {
	pool, _, refs := makePoolDataset(60, 6, 0.06, 5)
	got := datasetDigest(AssignToReferences(Greedy(pool, Config{}), refs, 30))
	if want := "e40e0dc282d3543e7e56ed68f8a98b9699fb8ba6b7c59c33b0cc585ee9945e39"; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}

// BenchmarkGreedyStorePool times the clustering step of one `dnastore get`
// on a store-shaped pool of about 1,150 selected reads.
func BenchmarkGreedyStorePool(b *testing.B) {
	pool := storePool(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyIndices(pool, Config{})
	}
}
