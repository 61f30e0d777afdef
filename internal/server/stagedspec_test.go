package server

import (
	"bytes"
	"strings"
	"testing"

	"dnastore/internal/channel"
)

const drillStages = "synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew"

func TestSimulateSpecStagesValidate(t *testing.T) {
	good := SimulateSpec{NumRefs: 4, RefLen: 40, Stages: drillStages}
	if err := good.Validate(); err != nil {
		t.Fatalf("staged spec rejected: %v", err)
	}
	for name, sp := range map[string]SimulateSpec{
		"bad stage":           {NumRefs: 4, RefLen: 40, Stages: "warp=0.1"},
		"stages plus rates":   {NumRefs: 4, RefLen: 40, Stages: drillStages, Sub: 0.01},
		"stages plus spatial": {NumRefs: 4, RefLen: 40, Stages: drillStages, Spatial: "v-shape"},
	} {
		sp := sp
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSimulateSpecStagesSimulator: a staged spec builds the pipeline with
// its pool stages bound over the coverage model, and the result matches
// building the same pipeline by hand — the server path adds nothing.
func TestSimulateSpecStagesSimulator(t *testing.T) {
	sp := SimulateSpec{NumRefs: 12, RefLen: 60, Seed: 9, Stages: drillStages,
		Coverage: 8, CoverageModel: "negbin"}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	ch, cov, err := sp.Simulator()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cov.Name(), "+pool(") {
		t.Errorf("pool stages not bound over coverage: %q", cov.Name())
	}

	got := sequentialResult(t, &sp)

	list, err := channel.ParseStages(drillStages)
	if err != nil {
		t.Fatal(err)
	}
	pipe := list.Build(ch.Name())
	sim := channel.Simulator{
		Channel:  pipe,
		Coverage: pipe.BindCoverage(channel.NegBinCoverage{Mean: 8, Dispersion: 2.5}),
	}
	ds := sim.Simulate("simulated", sp.References(), sp.Seed)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Error("staged spec result differs from hand-built pipeline")
	}
}

// TestSimulateSpecBlankStages: a blank stages value means no stages, as a
// blank faults value means no faults. It neither conflicts with the rates
// nor selects the identity pipeline, whose reads are exact copies.
func TestSimulateSpecBlankStages(t *testing.T) {
	plain := SimulateSpec{NumRefs: 12, RefLen: 60, Seed: 9, Sub: 0.01, Coverage: 4}
	blank := plain
	blank.Stages = " "
	if err := blank.Validate(); err != nil {
		t.Fatalf("blank stages with rates rejected: %v", err)
	}
	if !bytes.Equal(sequentialResult(t, &blank), sequentialResult(t, &plain)) {
		t.Error("blank stages give other bytes than no stages")
	}
}

// TestSimulateSpecStagesFingerprint: adding stages changes the
// fingerprint; leaving them empty keeps it byte-compatible with specs from
// before the field existed (omitempty), so old journals stay resumable.
func TestSimulateSpecStagesFingerprint(t *testing.T) {
	plain := SimulateSpec{NumRefs: 4, RefLen: 40, Seed: 1, Sub: 0.01}
	staged := SimulateSpec{NumRefs: 4, RefLen: 40, Seed: 1, Stages: drillStages}
	if plain.Fingerprint() == staged.Fingerprint() {
		t.Error("staged spec shares a fingerprint with the plain spec")
	}
	again := SimulateSpec{NumRefs: 4, RefLen: 40, Seed: 1, Stages: drillStages}
	if staged.Fingerprint() != again.Fingerprint() {
		t.Error("identical staged specs fingerprint differently")
	}
}
