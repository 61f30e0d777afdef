package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestSpecWorkBound: a spec whose reference bases × coverage exceeds
// maxWork is rejected at Validate and at POST /v1/jobs, even when each
// factor is within its own limit.
func TestSpecWorkBound(t *testing.T) {
	oversize := map[string]JobSpec{
		"refs at both factor limits": {Kind: KindSimulate, Simulate: &SimulateSpec{NumRefs: 1 << 20, RefLen: 1 << 16}},
		"simulate coverage":          {Kind: KindSimulate, Simulate: &SimulateSpec{NumRefs: 16, RefLen: 110, Coverage: 1e9}},
		"explicit refs coverage":     {Kind: KindSimulate, Simulate: &SimulateSpec{Refs: []string{"ACGTACGT"}, Coverage: 1e9}},
		"retrieve coverage":          {Kind: KindRetrieve, Retrieve: &RetrieveSpec{PoolPath: "pool.dnap", Key: "k", Coverage: 1e12}},
	}
	for name, spec := range oversize {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
	}
	s := testServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for name, spec := range oversize {
		if resp, _ := postJob(t, ts, spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSpecWorkBoundAdmitsToolSpecs: the largest specs the repo's tools
// submit stay admissible — the benchmark's serve and fleet classes, the
// dnaload huge class, and the half-million-cluster drain drill.
func TestSpecWorkBoundAdmitsToolSpecs(t *testing.T) {
	for name, sp := range map[string]SimulateSpec{
		"bench serve large":  {NumRefs: 2000, RefLen: 110, Sub: 0.01, Ins: 0.005, Del: 0.02, Spatial: "terminal-skew", Coverage: 10, CoverageModel: "negbin"},
		"bench serve staged": {NumRefs: 1000, RefLen: 110, Stages: drillStages, Coverage: 10, CoverageModel: "negbin"},
		"bench fleet large":  {NumRefs: 1200, RefLen: 110, Sub: 0.01, Ins: 0.005, Del: 0.02, Spatial: "terminal-skew", Coverage: 5, CoverageModel: "negbin"},
		"dnaload huge":       {NumRefs: 8000, RefLen: 120, Sub: 0.01, Ins: 0.005, Del: 0.02, Coverage: 5},
		"drain drill":        {NumRefs: 500000, RefLen: 110, Sub: 0.01, Del: 0.02, Coverage: 8},
		"default coverage":   {NumRefs: 1 << 20, RefLen: 110},
	} {
		sp := sp
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	rs := RetrieveSpec{PoolPath: "pool.dnap", Key: "k", Coverage: 40, Retries: 4}
	if err := rs.Validate(); err != nil {
		t.Errorf("retrieve: rejected: %v", err)
	}
}
