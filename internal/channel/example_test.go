package channel_test

import (
	"fmt"

	"dnastore/internal/channel"
	"dnastore/internal/dist"
	"dnastore/internal/rng"
)

// Example shows the simplest use of a channel: perturb one strand.
func Example() {
	ch := channel.NewNaive("demo", channel.Rates{Sub: 0.5})
	read := channel.Transmit(ch, "ACGTACGTACGT", rng.New(42))
	fmt.Println(len(read) == 12) // substitutions preserve length
	// Output: true
}

// ExampleSimulator builds a full clustered dataset: a channel plus a
// coverage model applied to a reference pool.
func ExampleSimulator() {
	refs := channel.RandomReferences(100, 110, 7)
	sim := channel.Simulator{
		Channel:  channel.NewNaive("nanopore-ish", channel.NanoporeMix(0.059)),
		Coverage: channel.FixedCoverage(6),
	}
	ds := sim.Simulate("demo", refs, 1)
	fmt.Println(ds.NumClusters(), ds.NumReads())
	// Output: 100 600
}

// ExampleModel_WithSpatial layers the paper's terminal error skew onto a
// base model without changing the aggregate error rate.
func ExampleModel_WithSpatial() {
	base := channel.NewNaive("flat", channel.EqualMix(0.06))
	skewed := base.WithSpatial(dist.NanoporeSkew())
	fmt.Printf("%.3f %.3f\n", base.AggregateRate(), skewed.AggregateRate())
	// Output: 0.060 0.060
}

// ExamplePipeline composes the physical stages of the storage pipeline —
// the §4.2 extension.
func ExamplePipeline() {
	p := channel.NewStoragePipeline("archive", 0.059, 10)
	fmt.Println(len(p.Stages))
	// Output: 4
}
