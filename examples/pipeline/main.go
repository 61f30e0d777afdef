// Pipeline: a complete DNA storage round trip (§1.1's six steps). A file
// is encoded into indexed strands with two-level Reed–Solomon redundancy,
// tagged with a PCR primer, mixed into a pool with another object, pushed
// through the composable multi-stage physical channel (synthesis → PCR →
// storage decay → sequencing), re-clustered from the shuffled read pool,
// reconstructed, and decoded back to the original bytes.
package main

import (
	"bytes"
	"fmt"
	"os"

	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	document := bytes.Repeat([]byte("It from bit, bit from base pair. "), 30)
	decoy := bytes.Repeat([]byte("Another tenant of the same DNA pool."), 25)
	r := rng.New(2024)

	// 1-2. Encode both objects into strands and key them with primers.
	// Redundancy sized to the channel: per-strand parity absorbs residual
	// substitutions; clusters that reconstruct with an indel fail the
	// strand code entirely and fall through to the group code as
	// erasures, so the group parity must cover the expected share of
	// low-coverage clusters.
	arch := codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6}
	primers, err := codec.GeneratePrimers(2, codec.PrimerConfig{}, r)
	if err != nil {
		return err
	}
	docStrands, err := arch.Encode(document)
	if err != nil {
		return err
	}
	decoyStrands, err := arch.Encode(decoy)
	if err != nil {
		return err
	}
	pool := append(codec.Tag(primers[0], docStrands), codec.Tag(primers[1], decoyStrands)...)
	fmt.Printf("stored %d strands (%d for our document, strand length %d)\n",
		len(pool), len(docStrands), arch.StrandLength()+primers[0].Len())

	// 3. The physical channel: synthesis, PCR, 10 years on the shelf,
	// Nanopore sequencing — as one composable pipeline.
	physical := channel.NewStoragePipeline("physical", 0.02, 10)
	sim := channel.Simulator{
		Channel:  physical,
		Coverage: channel.NegBinCoverage{Mean: 16, Dispersion: 6},
	}
	ds := sim.Simulate("pool", pool, 77)
	fmt.Println("sequenced:", ds.ComputeStats())

	// 4. Random access: PCR-amplify only our primer's strands out of the
	// shuffled pool.
	reads := ds.AllReads(r)
	selected := codec.SelectAmplify(reads, primers[0], 4)
	fmt.Printf("PCR selection: %d of %d reads amplified\n", len(selected), len(reads))

	// 5. Cluster the unlabeled reads and reconstruct each cluster.
	clusters := cluster.Greedy(selected, cluster.Config{})
	fmt.Printf("clustered into %d clusters (expected ≈%d)\n", len(clusters), len(docStrands))
	alg := recon.NewTwoWayIterative()
	var recovered []dna.Strand
	for _, members := range clusters {
		if len(members) == 0 {
			continue
		}
		est := alg.Reconstruct(members, arch.StrandLength())
		recovered = append(recovered, est)
	}

	// 6. Decode: per-strand RS absorbs residual substitutions; group RS
	// rebuilds strands lost to clustering or erasure.
	got, err := arch.Decode(recovered)
	if err != nil {
		return fmt.Errorf("decode failed: %w", err)
	}
	if !bytes.Equal(got, document) {
		return fmt.Errorf("document corrupted after round trip")
	}
	fmt.Printf("recovered %d bytes exactly — round trip complete\n", len(got))
	return nil
}
