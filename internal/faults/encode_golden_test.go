package faults

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
)

// Pins of the cluster text encoding itself. The channel goldens hash their
// own rendering of each dataset and the fault goldens keep 16 bytes of the
// digest, so neither pins the exact bytes dataset.Write produces; these
// full SHA-256 digests do. They were captured from the fmt-based Write that
// predates the append encoder. Run with GOLDEN_PRINT=1 to print current
// digests instead of asserting.

// encodePin is one pinned dataset encoding.
type encodePin struct {
	name string
	ds   func() *dataset.Dataset
	hash string
}

func encodePins(t *testing.T) []encodePin {
	faultHashes := map[string]string{
		"spec-model":         "ba8c955bbaaba0df73087d2bad1c1b54bc5f615c656823a895d115775a59fdcc",
		"spec-physical":      "a5f014c2f708de2088b6f00ddf261c3b63ef4fcd1e9243bfc39ab8be6a59355e",
		"chimera-spec-model": "0c77dd56dab40dacb1ffa90b255888218838890217e5bb8903ee7cf564b458b3",
	}
	var pins []encodePin
	refs := channel.RandomReferences(40, 110, 53)
	for _, gc := range faultGoldenCases(t) {
		pins = append(pins, encodePin{
			name: "fault/" + gc.name,
			ds:   func() *dataset.Dataset { return gc.sim(refs).Simulate(gc.name, refs, 53) },
			hash: faultHashes[gc.name],
		})
	}
	return append(pins,
		encodePin{
			// The naive case of the channel goldens.
			name: "channel/naive",
			ds: func() *dataset.Dataset {
				sim := channel.Simulator{
					Channel:  channel.NewNaive("golden-naive", channel.Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
					Coverage: channel.FixedCoverage(6),
				}
				return sim.Simulate("naive", channel.RandomReferences(60, 110, 7), 7)
			},
			hash: "64526ab25bccf355d30822ddb85043b0eb0cbecba2dcd38594aeb0ef0815912b",
		},
		encodePin{
			name: "erasure",
			ds: func() *dataset.Dataset {
				return &dataset.Dataset{Clusters: []dataset.Cluster{
					{Ref: "ACGTTGCA", Reads: []dna.Strand{"ACGTTGCA", "ACGTGCA", "AACGTTGCA"}},
					{Ref: "GGCCAATT"},
					{Ref: "TTAGC", Reads: []dna.Strand{"TTAGG"}},
				}}
			},
			hash: "41c3e49f4b29eb30fa84767c9fdd336bdc6e1c862633044d0ed5a35d32d70b26",
		},
		encodePin{
			name: "empty",
			ds:   func() *dataset.Dataset { return &dataset.Dataset{} },
			hash: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		},
	)
}

// checkDigest compares the SHA-256 of b with want, or prints it under
// GOLDEN_PRINT.
func checkDigest(t *testing.T, name string, b []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	if os.Getenv("GOLDEN_PRINT") != "" {
		fmt.Printf("golden %-26s %s\n", name, got)
		return
	}
	if got != want {
		t.Errorf("%s: sha256 = %s, want %s", name, got, want)
	}
}

// TestDatasetWritePinned pins dataset.Write's bytes for the fault goldens
// (one simulation worker), the naive channel golden, a dataset with an
// erasure cluster and an empty dataset, and asserts that AppendText gives
// the same bytes.
func TestDatasetWritePinned(t *testing.T) {
	for _, p := range encodePins(t) {
		ds := p.ds()
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		checkDigest(t, p.name, buf.Bytes(), p.hash)
		b, err := ds.AppendText(nil)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !bytes.Equal(b, buf.Bytes()) {
			t.Errorf("%s: AppendText differs from Write", p.name)
		}
	}
}

// TestWriteRefsPinned pins dataset.WriteRefs over the references of every
// channel golden case (clusters, length and seed as in internal/channel).
func TestWriteRefsPinned(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range [][3]int{
		{60, 110, 7}, {60, 110, 11}, {50, 137, 13}, {50, 110, 17}, {40, 75, 19}, {60, 110, 23},
		{40, 110, 29}, {40, 110, 31}, {40, 110, 37}, {40, 110, 41}, {40, 110, 43}, {40, 110, 47},
	} {
		if err := dataset.WriteRefs(&buf, channel.RandomReferences(c[0], c[1], uint64(c[2]))); err != nil {
			t.Fatal(err)
		}
	}
	checkDigest(t, "refs", buf.Bytes(), "6e1aa9a0e1b550297f08b46017399e2d60d945a2f4b10b017fb2edfb361e9ca8")
}
