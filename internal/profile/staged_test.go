package profile

import (
	"math"
	"strings"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/rng"
)

func TestStagedPipelineCalibration(t *testing.T) {
	truth := channel.Rates{Sub: 0.025, Ins: 0.01, Del: 0.025}
	ds := simulate(channel.NewNaive("n", truth), 300, 110, 10, 3)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}

	pipe := p.StagedPipeline("staged", 100)
	if len(pipe.Stages) != 4 {
		t.Fatalf("staged pipeline has %d stages", len(pipe.Stages))
	}
	if _, ok := pipe.Stages[1].(*channel.PCRAmplification); !ok {
		t.Errorf("stage 1 is %T, want *channel.PCRAmplification", pipe.Stages[1])
	}
	if _, ok := pipe.Stages[2].(*channel.AgingStage); !ok {
		t.Errorf("stage 2 is %T, want *channel.AgingStage", pipe.Stages[2])
	}

	// The stage split must conserve the fitted error mass.
	agg, complete := pipe.AggregateRate()
	if !complete {
		t.Error("calibrated stages all report rates")
	}
	if fitted := p.AggregateRate(); math.Abs(agg-fitted)/fitted > 0.15 {
		t.Errorf("staged aggregate %v strays from fitted %v", agg, fitted)
	}

	// Pool effects ride along and bind over coverage.
	cov := pipe.BindCoverage(channel.FixedCoverage(10))
	if !strings.Contains(cov.Name(), "+pool(") {
		t.Errorf("pool stages not bound: %q", cov.Name())
	}

	ref := channel.RandomReferences(1, 110, 5)[0]
	if err := channel.Transmit(pipe, ref, rng.New(7)).Validate(); err != nil {
		t.Fatal(err)
	}
}
