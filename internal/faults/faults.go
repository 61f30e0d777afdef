// Package faults provides the process-level drill channels and the
// storage-corruption helpers that exercise the pipeline's failure paths.
//
// The channel's own faults — whole clusters that vanish (failed PCR,
// storage decay: Heckel et al. report strand dropout as a first-order
// effect), reads that stop short, contamination bursts that inject alien
// or chimeric sequence, and synthesis defects that zero out contiguous
// plate regions — are directives of the channel grammar: dropout=,
// zerocov=, truncate= and contam= parse with channel.ParseFaults and build
// with StageList.Bind. They draw only from the per-cluster RNG, so the
// same seed and the same fault spec give byte-identical output; this
// package's tests drill them end to end.
//
// The drill channels (drill.go) model transient runtime failures that a
// supervised retry must ride out. CorruptPool, BitRot and TornWrite damage
// serialized files for exercising loader hardening.
package faults
