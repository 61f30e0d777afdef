// Keyvalue: the DNA pool as a key-value store (§1.1.1). Objects are
// stored under string keys, each keyed by a PCR primer; the pool is
// sequenced once through a noisy channel, and individual objects are
// retrieved from the shared read-out by selective amplification — no
// physical organisation, no scanning of other objects' strands.
package main

import (
	"bytes"
	"fmt"
	"os"

	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/dist"
	"dnastore/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	pool := store.New(store.Options{
		Archive: codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6},
		Seed:    2024,
	})

	objects := map[string][]byte{
		"readme.txt":  bytes.Repeat([]byte("DNA keeps data for centuries. "), 8),
		"config.json": []byte(`{"retention_years": 500, "medium": "synthetic DNA", "codec": "2-bit"}`),
		"photo.raw":   bytes.Repeat([]byte{0x89, 0x50, 0x4e, 0x47, 0x42, 0x17}, 40),
	}
	for key, data := range objects {
		if err := pool.Store(key, data); err != nil {
			return err
		}
	}
	fmt.Printf("stored %d objects in %d strands: %v\n",
		len(objects), pool.NumStrands(), pool.Keys())

	// One sequencing run over the whole pool, Nanopore-flavoured noise.
	ch := channel.NewNaive("nanopore-ish", channel.NanoporeMix(0.02)).
		WithSpatial(dist.NanoporeSkew())
	reads := pool.Sequence(ch, channel.NegBinCoverage{Mean: 14, Dispersion: 6}, 7)
	fmt.Printf("sequenced the pool: %d reads\n", len(reads))

	// Random access: each object is recovered independently from the same
	// read-out.
	for key, want := range objects {
		got, err := pool.Retrieve(key, reads)
		if err != nil {
			return fmt.Errorf("retrieve %q: %w", key, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("retrieve %q: %d bytes differ from what was stored", key, len(got))
		}
		fmt.Printf("  %-12s %4d bytes  OK\n", key, len(got))
	}
	return nil
}
