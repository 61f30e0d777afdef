package faults

import (
	"slices"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/rng"
)

// FuzzParseSpec hardens the -faults field of the channel grammar — operator
// input that reaches the fault effects directly. Arbitrary strings must
// either parse into a list that round-trips through String() and binds, or
// error cleanly with the zero value; never panic, and never accept
// out-of-range probabilities or regions that the effects would misbehave on.
// The stages field is channel.FuzzParseStages's; the synthesis seed
// drives the path that rejects a stage directive here.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("dropout=0.1")
	f.Add("dropout=0.1,truncate=0.3:0.5,contam=0.02,zerocov=10:5")
	f.Add("truncate=1")
	f.Add("truncate=0.5:0.99")
	f.Add("zerocov=0:1")
	f.Add("dropout=1.5")
	f.Add("dropout=-1")
	f.Add("dropout=NaN")
	f.Add("truncate=0.5:nope")
	f.Add("zerocov=5")
	f.Add("zerocov=-1:3")
	f.Add("bogus=1")
	f.Add("dropout")
	f.Add(",,,")
	f.Add("dropout=0.1,dropout=0.2")
	f.Add(" dropout = 0.5 ")
	f.Add("truncate=1e-300:0.5,contam=0x1p-3")
	f.Add("synthesis=0.01")

	f.Fuzz(func(t *testing.T, s string) {
		list, err := channel.ParseFaults(s)
		if err != nil {
			if list != nil {
				t.Errorf("ParseFaults(%q) errored but returned %+v", s, list)
			}
			return
		}
		// Accepted lists must be in range: the effects treat these as
		// probabilities and index bounds without re-validating.
		for _, sp := range list {
			if !(sp.Rate >= 0 && sp.Rate <= 1) {
				t.Errorf("ParseFaults(%q) accepted %s rate %v", s, sp.Kind, sp.Rate)
			}
			if sp.MinFrac != 0 && !(sp.MinFrac > 0 && sp.MinFrac < 1) {
				t.Errorf("ParseFaults(%q) accepted truncate min fraction %v", s, sp.MinFrac)
			}
			if sp.Start < 0 || sp.Len < 0 {
				t.Errorf("ParseFaults(%q) accepted negative zerocov %d:%d", s, sp.Start, sp.Len)
			}
		}
		// String() must render a list that parses back to the same value —
		// the CLI echoes specs and the server persists them in job specs.
		rt, err := channel.ParseFaults(list.String())
		if err != nil {
			t.Fatalf("round-trip ParseFaults(%q -> %q) failed: %v", s, list.String(), err)
		}
		if !slices.Equal(rt, list) {
			t.Fatalf("round-trip mismatch: %q -> %+v -> %q -> %+v", s, list, list.String(), rt)
		}
		ch, cov := list.Bind(channel.NewNaive("n", channel.EqualMix(0.03)), channel.FixedCoverage(2))
		ref := channel.RandomReferences(1, 40, 1)[0]
		if err := channel.Transmit(ch, ref, rng.New(1)).Validate(); err != nil {
			t.Fatalf("bound channel emits invalid reads: %v", err)
		}
		if n := cov.Sample(0, rng.New(1)); n < 0 {
			t.Fatalf("bound coverage sampled %d", n)
		}
	})
}
