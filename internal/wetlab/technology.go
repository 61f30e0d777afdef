package wetlab

// Technology describes one DNA sequencing technology generation, mirroring
// the comparison of the paper's Table 1.1.
type Technology struct {
	// Name is the common name ("Sanger", "Illumina", "Nanopore").
	Name string
	// Generation is the ordinal generation (1, 2, 3).
	Generation int
	// CostPerKbUSD is the [low, high] sequencing cost range in dollars per
	// kilobase.
	CostPerKbUSD [2]float64
	// ErrorRate is the [low, high] per-base error-rate range.
	ErrorRate [2]float64
	// SequencingLengthBP is the maximum strand length reliably sequenced.
	SequencingLengthBP int
	// ReadSpeedHoursPerKb is the [low, high] read latency range in hours
	// per kilobase.
	ReadSpeedHoursPerKb [2]float64
	// BurstErrors reports whether the technology is prone to burst errors
	// (5+ consecutive corrupted bases) — a Nanopore trait (§1.2).
	BurstErrors bool
}

// Technologies returns the Table 1.1 registry, in generation order.
func Technologies() []Technology {
	return []Technology{
		{
			Name:                "Sanger",
			Generation:          1,
			CostPerKbUSD:        [2]float64{1, 2},
			ErrorRate:           [2]float64{0.00001, 0.0001},
			SequencingLengthBP:  500,
			ReadSpeedHoursPerKb: [2]float64{1e-1, 1e-1},
		},
		{
			Name:                "Illumina",
			Generation:          2,
			CostPerKbUSD:        [2]float64{1e-5, 1e-3},
			ErrorRate:           [2]float64{0.001, 0.01},
			SequencingLengthBP:  150,
			ReadSpeedHoursPerKb: [2]float64{1e-7, 1e-4},
		},
		{
			Name:                "Nanopore",
			Generation:          3,
			CostPerKbUSD:        [2]float64{1e-4, 1e-3},
			ErrorRate:           [2]float64{0.10, 0.10},
			SequencingLengthBP:  100000,
			ReadSpeedHoursPerKb: [2]float64{1e-7, 1e-6},
			BurstErrors:         true,
		},
	}
}
