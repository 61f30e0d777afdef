package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/obs"
	"dnastore/internal/rng"
)

// oracleScale is the coverage scale RetrieveAdaptive hands its factory on
// attempt a of a retrieval seeded with seed: backoff^(a-1) capped at 8,
// and on a retry spread by ±10% with a uniform draw from a generator
// seeded by SplitMix64 over (seed ^ 0x6a09e667f3bcc908, a).
func oracleScale(seed uint64, a int, backoff float64) float64 {
	s := math.Min(math.Pow(backoff, float64(a-1)), 8)
	if a > 1 {
		u := rng.New(rng.Mix64(seed ^ 0x6a09e667f3bcc908 + uint64(a)*0x9e3779b97f4a7c15)).Float64()
		s *= 1 + 0.1*(2*u-1)
	}
	return s
}

// testPool builds a pool holding one object whose layout is exactly one
// parity group: 10 data strands + 6 group parity = 16 designed strands,
// so cluster index == designed strand index and the erasure-capacity
// boundary (6) is known.
func resiliencePool(t *testing.T) (*Pool, []byte) {
	t.Helper()
	p := New(Options{
		Archive: codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6},
		Seed:    21,
	})
	payload := bytes.Repeat([]byte("resilient payload "), 11)[:190]
	if err := p.Store("doc", payload); err != nil {
		t.Fatal(err)
	}
	if n := p.NumStrands(); n != 16 {
		t.Fatalf("layout changed: %d strands, tests assume 16", n)
	}
	return p, payload
}

func cleanChannel() channel.Channel { return channel.NewNaive("clean", channel.Rates{}) }

func TestRetrieveReportCleanPath(t *testing.T) {
	p, payload := resiliencePool(t)
	reads := p.Sequence(cleanChannel(), channel.FixedCoverage(5), 9)
	data, rep, err := p.RetrieveReport("doc", reads)
	if err != nil {
		t.Fatalf("clean retrieve failed: %v\nreport: %s", err, rep.Summary())
	}
	if !bytes.Equal(data, payload) {
		t.Error("payload corrupted")
	}
	if rep.TotalStrands != 16 || rep.Clean != 16 || rep.Repaired != 0 || rep.Erased != 0 {
		t.Errorf("clean-path report: %+v", rep)
	}
	if !rep.Recovered() {
		t.Error("clean path not Recovered")
	}
	if rep.ReadsSelected != 16*5 {
		t.Errorf("ReadsSelected = %d, want 80", rep.ReadsSelected)
	}
	if !strings.Contains(rep.Summary(), "recovered") {
		t.Errorf("Summary = %q", rep.Summary())
	}
}

// TestRetrieveReportDropout erases designed-strand clusters via the
// deterministic zerocov= fault and checks the three regimes:
// parity-strand dropout (free), data-strand dropout within group-parity
// capacity (repaired as erasures), and beyond capacity (unrecoverable,
// with the lost strands named).
func TestRetrieveReportDropout(t *testing.T) {
	cases := []struct {
		name       string
		start, n   int
		wantOK     bool
		wantErased int
	}{
		{"parity strands", 10, 6, true, 6},
		{"data strands within capacity", 0, 6, true, 6},
		{"data strands beyond capacity", 0, 7, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, payload := resiliencePool(t)
			_, cov := channel.StageList{{Kind: "zerocov", Start: tc.start, Len: tc.n}}.Bind(nil, channel.FixedCoverage(5))
			reads := p.Sequence(cleanChannel(), cov, 9)
			data, rep, err := p.RetrieveReport("doc", reads)
			if tc.wantOK {
				if err != nil {
					t.Fatalf("retrieve failed: %v\nreport: %s", err, rep.Summary())
				}
				if !bytes.Equal(data, payload) {
					t.Error("payload corrupted")
				}
				if rep.Erased != tc.wantErased {
					t.Errorf("Erased = %d, want %d", rep.Erased, tc.wantErased)
				}
				if rep.Clean != 16-tc.n {
					t.Errorf("Clean = %d, want %d", rep.Clean, 16-tc.n)
				}
				return
			}
			if err == nil {
				t.Fatal("beyond-capacity dropout decoded successfully")
			}
			if rep.Recovered() {
				t.Error("report claims recovery on failure")
			}
			if len(rep.Unrecovered) != tc.n {
				t.Errorf("Unrecovered = %v, want the %d dead strands", rep.Unrecovered, tc.n)
			}
			for i, idx := range rep.Unrecovered {
				if idx != tc.start+i {
					t.Errorf("Unrecovered[%d] = %d, want %d", i, idx, tc.start+i)
				}
			}
			if !strings.Contains(rep.Summary(), "unrecovered") {
				t.Errorf("Summary = %q", rep.Summary())
			}
		})
	}
}

func TestRetrieveReportTruncatedReads(t *testing.T) {
	p, payload := resiliencePool(t)
	// Most reads lose their tail, but enough full-length reads per cluster
	// survive for reconstruction plus per-strand RS to repair the damage.
	ch := channel.ReadTruncation{Base: cleanChannel(), P: 0.5, MinFrac: 0.5}
	reads := p.Sequence(ch, channel.FixedCoverage(10), 11)
	data, rep, err := p.RetrieveReport("doc", reads)
	if err != nil {
		t.Fatalf("truncated retrieve failed: %v\nreport: %s", err, rep.Summary())
	}
	if !bytes.Equal(data, payload) {
		t.Error("payload corrupted")
	}
	// Universal heavy truncation destroys the object; the report must say
	// what was lost rather than silently failing.
	ch = channel.ReadTruncation{Base: cleanChannel(), P: 1, MinFrac: 0.2}
	reads = p.Sequence(ch, channel.FixedCoverage(4), 11)
	_, rep, err = p.RetrieveReport("doc", reads)
	if err == nil {
		t.Skip("fully truncated pool still decoded; tighten the fault if this starts passing")
	}
	if rep.Recovered() {
		t.Errorf("failure report claims recovery: %s", rep.Summary())
	}
}

func TestRetrieveAdaptiveRecoversFromDropout(t *testing.T) {
	p, payload := resiliencePool(t)
	// Heavy stochastic dropout: most single passes lose more strands than
	// group parity covers, but each retry re-rolls the dropout with a fresh
	// derived seed, so a bounded retry loop recovers.
	factory := func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
		return channel.StageList{{Kind: "dropout", Rate: 0.5}}.Bind(cleanChannel(), channel.FixedCoverage(4))
	}
	attemptsSeen := 0
	pol := RetryPolicy{
		MaxAttempts: 8,
		OnAttempt:   func(attempt int, rep RetrieveReport, err error) { attemptsSeen = attempt },
	}
	data, rep, attempts, err := p.RetrieveAdaptive(context.Background(), "doc", factory, pol, 1)
	if err != nil {
		t.Fatalf("adaptive retrieve failed after %d attempts: %v", attempts, err)
	}
	if !bytes.Equal(data, payload) {
		t.Error("payload corrupted")
	}
	if attempts != attemptsSeen {
		t.Errorf("attempts %d != callback's last attempt %d", attempts, attemptsSeen)
	}
	if !rep.Recovered() {
		t.Errorf("success report not recovered: %s", rep.Summary())
	}
}

func TestRetrieveAdaptiveEscalatesCoverage(t *testing.T) {
	p, payload := resiliencePool(t)
	// One read per cluster at 2.5% error starves reconstruction; doubling
	// coverage per retry must eventually clear it.
	var scales []float64
	factory := func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
		scales = append(scales, scale)
		n := int(scale)
		return channel.NewNaive("seq", channel.NanoporeMix(0.025)), channel.FixedCoverage(n)
	}
	data, _, attempts, err := p.RetrieveAdaptive(context.Background(), "doc", factory,
		RetryPolicy{MaxAttempts: 6, Backoff: 2}, 5)
	if err != nil {
		t.Fatalf("escalation never recovered: %v", err)
	}
	if !bytes.Equal(data, payload) {
		t.Error("payload corrupted")
	}
	if attempts < 2 {
		t.Skip("first attempt already recovered; fault too weak to exercise escalation")
	}
	for i, got := range scales {
		if want := oracleScale(5, i+1, 2); got != want {
			t.Errorf("attempt %d scale = %v, want %v (all: %v)", i+1, got, want, scales)
		}
	}
}

func TestRetrieveAdaptiveExhaustion(t *testing.T) {
	p, _ := resiliencePool(t)
	// A dead region is deterministic — no amount of re-sequencing helps —
	// so the loop must exhaust its attempts and surface a structured error.
	factory := func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
		return channel.StageList{{Kind: "zerocov", Len: 8}}.Bind(cleanChannel(), channel.FixedCoverage(4))
	}
	data, rep, attempts, err := p.RetrieveAdaptive(context.Background(), "doc", factory, RetryPolicy{MaxAttempts: 3}, 1)
	if err == nil {
		t.Fatal("dead-region retrieve succeeded")
	}
	if data != nil {
		t.Error("failed retrieve returned data")
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	var pre *PartialRecoveryError
	if !errors.As(err, &pre) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if pre.Key != "doc" || pre.Attempts != 3 {
		t.Errorf("partial recovery error: %+v", pre)
	}
	if len(pre.Report.Unrecovered) == 0 || rep.Recovered() {
		t.Errorf("exhaustion report names no strands: %s", pre.Report.Summary())
	}
	if !strings.Contains(err.Error(), "unrecovered strands") {
		t.Errorf("error does not carry the erasure report: %v", err)
	}
}

func TestRetrieveAdaptiveCancellation(t *testing.T) {
	p, _ := resiliencePool(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first attempt
	factory := func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
		return cleanChannel(), channel.FixedCoverage(4)
	}
	_, _, attempts, err := p.RetrieveAdaptive(ctx, "doc", factory, RetryPolicy{}, 1)
	if err == nil {
		t.Fatal("canceled retrieve succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// "Was told to stop" must be distinguishable from "gave up": no attempt
	// ran, and the structured error says so.
	if attempts != 0 {
		t.Errorf("attempts = %d, want 0 for pre-attempt cancellation", attempts)
	}
	var pre *PartialRecoveryError
	if !errors.As(err, &pre) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if pre.Attempts != 0 {
		t.Errorf("PartialRecoveryError.Attempts = %d, want 0", pre.Attempts)
	}
	if !pre.Canceled() {
		t.Error("PartialRecoveryError.Canceled() = false for a canceled retrieval")
	}
	if !strings.Contains(pre.Error(), "before any sequencing attempt") {
		t.Errorf("cancellation error message: %v", pre)
	}
}

// TestRetrieveAdaptiveDeadlineMidRun cancels between attempts and checks the
// error still reports cancellation (not exhaustion) while counting the
// attempts that did run.
func TestRetrieveAdaptiveDeadlineMidRun(t *testing.T) {
	p, _ := resiliencePool(t)
	ctx, cancel := context.WithCancel(context.Background())
	factory := func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
		// A dead region fails every attempt; cancel after the first one so
		// the loop exits on ctx.Err() at the top of attempt 2.
		return channel.StageList{{Kind: "zerocov", Len: 8}}.Bind(cleanChannel(), channel.FixedCoverage(4))
	}
	pol := RetryPolicy{MaxAttempts: 5, OnAttempt: func(attempt int, rep RetrieveReport, err error) {
		cancel()
	}}
	_, _, attempts, err := p.RetrieveAdaptive(ctx, "doc", factory, pol, 1)
	if err == nil {
		t.Fatal("canceled retrieve succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	var pre *PartialRecoveryError
	if !errors.As(err, &pre) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if !pre.Canceled() {
		t.Error("Canceled() = false after mid-run cancellation")
	}
	if attempts != 1 || pre.Attempts != 1 {
		t.Errorf("attempts = %d / %d, want 1: only one attempt ran", attempts, pre.Attempts)
	}
	// Exhaustion, by contrast, must not read as cancellation.
	_, _, _, err = p.RetrieveAdaptive(context.Background(), "doc", factory, RetryPolicy{MaxAttempts: 2}, 1)
	if !errors.As(err, &pre) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if pre.Canceled() {
		t.Error("Canceled() = true for an exhausted (not canceled) retrieval")
	}
}

func TestRetrieveAdaptiveBackoffCapAndJitter(t *testing.T) {
	p, _ := resiliencePool(t)
	// A dead region never recovers, so every attempt runs and the factory
	// observes the full scale schedule.
	record := func(scales *[]float64) SequencerFactory {
		return func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
			*scales = append(*scales, scale)
			return channel.StageList{{Kind: "zerocov", Len: 8}}.Bind(cleanChannel(), channel.FixedCoverage(4))
		}
	}

	// With Backoff 2 the raw scales 1,2,4,8,16,32 clamp to 1,2,4,8,8,8,
	// and each retry is jittered: every scale is the oracle's, the first
	// attempt is exact, retries deviate within ±10% of the capped schedule,
	// and the whole schedule is seed-deterministic.
	var j1, j2, j3 []float64
	pol := RetryPolicy{MaxAttempts: 6, Backoff: 2}
	p.RetrieveAdaptive(context.Background(), "doc", record(&j1), pol, 3)
	p.RetrieveAdaptive(context.Background(), "doc", record(&j2), pol, 3)
	p.RetrieveAdaptive(context.Background(), "doc", record(&j3), pol, 4)
	if len(j1) != 6 {
		t.Fatalf("saw %d attempts, want 6", len(j1))
	}
	for i, got := range j1 {
		if want := oracleScale(3, i+1, 2); got != want {
			t.Errorf("attempt %d scale = %v, want %v (all: %v)", i+1, got, want, j1)
		}
	}
	if j1[0] != 1 {
		t.Errorf("first attempt jittered: %v", j1[0])
	}
	capped := []float64{1, 2, 4, 8, 8, 8}
	deviated := false
	for i := 1; i < len(j1); i++ {
		lo, hi := capped[i]*0.9, capped[i]*1.1
		if j1[i] < lo || j1[i] > hi {
			t.Errorf("attempt %d scale %v outside [%v, %v]", i+1, j1[i], lo, hi)
		}
		if j1[i] != capped[i] {
			deviated = true
		}
		if j1[i] != j2[i] {
			t.Errorf("same seed, different jitter: %v vs %v", j1[i], j2[i])
		}
	}
	if !deviated {
		t.Error("jitter changed no scale")
	}
	same := true
	for i := 1; i < len(j1) && i < len(j3); i++ {
		if j1[i] != j3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

// TestRetrieveAdaptiveStageSplit: inside each attempt's store.decode, the
// get records its clustering and reconstruction as stages of their own,
// whose walls fit inside the decode's.
func TestRetrieveAdaptiveStageSplit(t *testing.T) {
	p, payload := resiliencePool(t)
	factory := func(int, float64) (channel.Channel, channel.CoverageModel) {
		return channel.NewNaive("seq", channel.NanoporeMix(0.02)), channel.FixedCoverage(8)
	}
	timer := obs.NewStageTimer()
	reads, clusters := 0, 0
	pol := RetryPolicy{OnAttempt: func(_ int, rep RetrieveReport, _ error) {
		reads, clusters = reads+rep.ReadsSelected, clusters+rep.Clusters
	}}
	data, _, attempts, err := p.RetrieveAdaptive(obs.WithTimer(context.Background(), timer), "doc", factory, pol, 3)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("retrieve: %v", err)
	}
	stages := map[string]obs.StageTiming{}
	for _, st := range timer.Snapshot() {
		stages[st.Stage] = st
	}
	dec, cl, rc := stages["store.decode"], stages["store.cluster"], stages["store.reconstruct"]
	for _, st := range []obs.StageTiming{dec, cl, rc} {
		if st.Calls != attempts {
			t.Errorf("stage %q ran %d times in %d attempts; stages %v", st.Stage, st.Calls, attempts, timer.Snapshot())
		}
	}
	if cl.Items != reads || rc.Items != clusters {
		t.Errorf("store.cluster saw %d reads, store.reconstruct %d clusters; the reports say %d and %d", cl.Items, rc.Items, reads, clusters)
	}
	if cl.Wall+rc.Wall > dec.Wall {
		t.Errorf("cluster %v + reconstruct %v exceed decode %v", cl.Wall, rc.Wall, dec.Wall)
	}
}
