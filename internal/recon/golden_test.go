package recon

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// goldenNames is every algorithm ByName knows.
var goldenNames = []string{
	"majority", "bma", "bma-oneway", "iterative", "iterative-sweep",
	"iterative-twoway", "iterative-weighted", "divbma", "msa",
}

// storeClusters builds the clusters one `dnastore get` reconstructs, with
// the pool recipe of internal/cluster's golden test: nine 1 KiB objects
// under their own primers, sequenced through NanoporeMix(rate) at
// NegBin(14, 6) coverage (the cluster test uses rate 0.02), PCR-selected
// by the first object's primer and greedy-clustered. It also returns the
// designed strand length.
func storeClusters(tb testing.TB, seed uint64, rate float64) ([][]dna.Strand, int) {
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
		Channel:  channel.NewNaive("sequencer", channel.NanoporeMix(rate)),
		Coverage: channel.NegBinCoverage{Mean: 14, Dispersion: 6},
	}
	reads := sim.Simulate("pool", designed, seed+1).AllReads(rng.New(seed + 2))
	selected := codec.SelectAmplify(reads, primers[0], 3)
	return cluster.Greedy(selected, cluster.Config{}), arch.StrandLength()
}

// estimatesDigest is the SHA-256 of a run's estimates, one per line.
func estimatesDigest(estimates []dna.Strand) string {
	h := sha256.New()
	for _, e := range estimates {
		h.Write([]byte(e))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReconGolden pins every algorithm's output, bit for bit, on the
// clusters a store get reconstructs: a faster alignment kernel, vote
// buffer or parallel loop must reproduce every estimate exactly. The
// three store pools decode almost cleanly, so a fourth pool at three
// times the error rate keeps the polish votes' tie-breaks in play.
func TestReconGolden(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
		rate float64
		want map[string]string
	}{
		{"store-seed1", 1, 0.02, map[string]string{
			"majority":           "4a6bcf0495089dada727e2874ea2c20a4d3b45af68f64d063eeaff9672cd116b",
			"bma":                "c2a48c6e086fe9403a7f0db8252607cf5aa3a4b630e51a1477ffa3f9c1d7950d",
			"bma-oneway":         "7369cbd896c776c4f5674d08231bba7a862b6c023594775f187d7065df6ad73c",
			"iterative":          "00e160f7386e58160e203f02bd9a08e6bb4f118df1e3b283e12ad6217c7d708a",
			"iterative-sweep":    "7369cbd896c776c4f5674d08231bba7a862b6c023594775f187d7065df6ad73c",
			"iterative-twoway":   "818a5e8b0c47c11bad147ea4b6108340cdd27d09840116b809357194bd1a63e1",
			"iterative-weighted": "00e160f7386e58160e203f02bd9a08e6bb4f118df1e3b283e12ad6217c7d708a",
			"divbma":             "b8acea2ec9d7f2d35851c5e5dd0655e51f7d8553b84cb5df5b37a891cae4fc26",
			"msa":                "943bf38af174df54bca7c0565c02126c93c318f04fb05cc3ed3c0fb4d8ddf56c",
		}},
		{"store-seed2", 2, 0.02, map[string]string{
			"majority":           "12f5bc0d661f7aec9338c8d87c4710c2ec99b78d12d612686baa026b672934b2",
			"bma":                "8534f6e4ef93e9217400cf397e09daa3b46184e22b2abc3a42a795e25f03d332",
			"bma-oneway":         "c105ea98aeb0c8d14f1cb5db82a18c5b6efc1a94c7958f1ccf52d05b4b19745f",
			"iterative":          "bff2c11bb1708b28189a23d0de2c25b53753745a1361a80f231ae4cffaf35b00",
			"iterative-sweep":    "c105ea98aeb0c8d14f1cb5db82a18c5b6efc1a94c7958f1ccf52d05b4b19745f",
			"iterative-twoway":   "bff2c11bb1708b28189a23d0de2c25b53753745a1361a80f231ae4cffaf35b00",
			"iterative-weighted": "2cb449043e9e0d419918d241cfde247cf14bfabd78b1760c3f326fbb28eec596",
			"divbma":             "74c233e2c706400576a9d45af7a70194ba50caf6a5876328dedafa659a72efd0",
			"msa":                "f73ff91fe771fbe9863331aec59fd87a4935e14e1696921ac19f38b446bd46be",
		}},
		{"store-seed3", 3, 0.02, map[string]string{
			"majority":           "53c3d2102d282dbe5610caf21f3ba66c32426817a9fb90ebe4f9c6fc9e1f397c",
			"bma":                "7a4d1b73bd1f4af4b814e21f3801cefa8d36cd20a310f5db37a0e398e5e35675",
			"bma-oneway":         "d663db12a9052e36d691bf6ad1779e6c0e72e65e7c39104b81ac61cf027f1fc8",
			"iterative":          "d663db12a9052e36d691bf6ad1779e6c0e72e65e7c39104b81ac61cf027f1fc8",
			"iterative-sweep":    "d663db12a9052e36d691bf6ad1779e6c0e72e65e7c39104b81ac61cf027f1fc8",
			"iterative-twoway":   "d663db12a9052e36d691bf6ad1779e6c0e72e65e7c39104b81ac61cf027f1fc8",
			"iterative-weighted": "9233b5644c684b1cf57e3a6e6c10a24d12b962f7f138e7c7539653d29e0d8a16",
			"divbma":             "affb1189409df2d14232077aca15ed1942aec06a57857bf3da880df932e3d947",
			"msa":                "fcec04421e052eb97238a1151b7966dd466ddc7f289bf866dea239bd10af85b8",
		}},
		{"noisy-seed4", 4, 0.06, map[string]string{
			"majority":           "07b4666ce8cbdffeab8b9a150a2eadf3eb435ae3c16d6b87ee16d012ce56abe2",
			"bma":                "15355b4fc68986701fea2bcfb603aa08bbab2ce6cc130bf6033578045a2a5ace",
			"bma-oneway":         "7a8d63b898587af0caa6aa6c5ce1ae56d0dbe5106739fe3fa3182c8f91262576",
			"iterative":          "5a1e8497085a131ee3c7faadceff642a50000705a6e78166cdf91473bb06c5f1",
			"iterative-sweep":    "7a8d63b898587af0caa6aa6c5ce1ae56d0dbe5106739fe3fa3182c8f91262576",
			"iterative-twoway":   "da8d84eeb316ea3c96515ddce1da80b40fde92edf6654428b6d076cac45b9736",
			"iterative-weighted": "a468547c2da9d3e45af773f6c4cfa45f7d9db0e63c7756037b7f03a758f62e9d",
			"divbma":             "35b69934faa97da137cf7c8469769804afc3d1bf3b87e64316fdd7c26c6c1799",
			"msa":                "5f381c6efe290255a779be9e013838cffd691445ee2a93e6c9df46c25e93b22d",
		}},
	}
	for _, c := range cases {
		clusters, length := storeClusters(t, c.seed, c.rate)
		for _, name := range goldenNames {
			rec, _ := ByName(name)
			out := make([]dna.Strand, len(clusters))
			for i, cl := range clusters {
				out[i] = rec.Reconstruct(cl, length)
			}
			if got := estimatesDigest(out); got != c.want[name] {
				t.Errorf("%s %s: %d clusters, digest %q, want %q", c.name, name, len(clusters), got, c.want[name])
			}
		}
	}
}
