package store

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/rng"
)

// The resilient read path: erasure/repair reporting, a structured
// partial-recovery error, and an adaptive re-sequencing loop that
// escalates coverage on decode failure — the graceful-degradation half of
// the fault-injection subsystem (see internal/faults).

// RetrieveReport describes how each designed strand of an object fared on
// the read path.
type RetrieveReport struct {
	// Key is the object key the retrieval targeted.
	Key string
	// ReadsSelected counts reads surviving PCR selection by the key's primer.
	ReadsSelected int
	// Clusters counts similarity clusters formed from the selected reads.
	Clusters int
	// TotalStrands is the object's designed strand count (data + parity).
	TotalStrands int
	// Clean counts strands decoded with zero RS corrections.
	Clean int
	// Repaired counts strands decoded after per-strand RS correction.
	Repaired int
	// Erased counts strands missing entirely but rebuilt from group parity.
	Erased int
	// Unrecovered lists designed strand indexes lost beyond parity capacity.
	Unrecovered []int
}

// Recovered reports whether every strand was accounted for.
func (r RetrieveReport) Recovered() bool { return len(r.Unrecovered) == 0 }

// Summary renders a one-line operator-facing account of the read path.
func (r RetrieveReport) Summary() string {
	status := "recovered"
	if !r.Recovered() {
		status = fmt.Sprintf("unrecovered strands %v", r.Unrecovered)
	}
	return fmt.Sprintf("key %q: %d reads in %d clusters; strands %d clean, %d repaired, %d erased of %d; %s",
		r.Key, r.ReadsSelected, r.Clusters, r.Clean, r.Repaired, r.Erased, r.TotalStrands, status)
}

// PartialRecoveryError reports an object that could not be fully recovered
// within the bounded re-sequencing attempts. It carries the final erasure
// report so callers can act on the partial outcome (e.g. name the lost
// strands) instead of seeing an opaque decode failure.
//
// Cancellation is reported distinctly from exhaustion: when the retrieval
// was told to stop (context canceled or deadline exceeded) Err wraps the
// context error — errors.Is(err, context.Canceled) and Canceled() hold —
// and Attempts counts only the sequencing attempts that actually ran,
// which is 0 when the context was already dead on entry. An exhausted
// retrieval instead carries the last decode failure with Attempts > 0.
type PartialRecoveryError struct {
	// Key is the unrecoverable object.
	Key string
	// Attempts is the number of sequencing attempts that ran; 0 means the
	// retrieval was canceled before sequencing anything.
	Attempts int
	// Report is the erasure report of the final attempt (zero-valued when
	// no attempt ran).
	Report RetrieveReport
	// Err is the last underlying failure; for a canceled retrieval it
	// wraps context.Canceled or context.DeadlineExceeded.
	Err error
}

// Error implements error.
func (e *PartialRecoveryError) Error() string {
	if e.Attempts == 0 {
		return fmt.Sprintf("store: %q retrieval stopped before any sequencing attempt: %v", e.Key, e.Err)
	}
	return fmt.Sprintf("store: %q unrecovered after %d attempts: %v (%s)",
		e.Key, e.Attempts, e.Err, e.Report.Summary())
}

// Unwrap exposes the last underlying failure.
func (e *PartialRecoveryError) Unwrap() error { return e.Err }

// Canceled reports whether the retrieval was told to stop (context
// canceled or deadline exceeded) rather than giving up on its own — the
// distinction a job server needs to decide between "mark canceled" and
// "mark failed".
func (e *PartialRecoveryError) Canceled() bool {
	return errors.Is(e.Err, context.Canceled) || errors.Is(e.Err, context.DeadlineExceeded)
}

// SequencerFactory builds the channel and coverage model for one sequencing
// attempt of RetrieveAdaptive. scale is the cumulative coverage escalation
// factor: 1 on the first attempt, multiplied by the policy backoff after
// each failure, so the factory should scale its mean coverage by it.
type SequencerFactory func(attempt int, scale float64) (channel.Channel, channel.CoverageModel)

// RetryPolicy bounds the adaptive re-sequencing loop.
type RetryPolicy struct {
	// MaxAttempts is the total number of sequencing attempts (default 3).
	MaxAttempts int
	// Backoff is the multiplicative coverage escalation per failed attempt
	// (default 2).
	Backoff float64
	// MaxScale caps the cumulative escalation factor (default 8): with many
	// attempts, unbounded exponential growth would demand absurd sequencing
	// depth long after extra coverage stopped helping.
	MaxScale float64
	// Jitter spreads each retry's scale by a uniform ±fraction (default
	// 0.1, clamped to 0.5; negative disables). The perturbation is derived
	// deterministically from the retrieval seed and attempt number, so runs
	// stay reproducible while retries avoid re-rolling an identical
	// configuration.
	Jitter float64
	// OnAttempt, when set, observes each finished attempt: its report and
	// its error (nil on success). Used by CLIs to stream progress.
	OnAttempt func(attempt int, rep RetrieveReport, err error)
}

// CheckRetrieve checks the parameters of a retrieval through a simulated
// sequencer: an error rate in [0,1], a mean coverage above 0 and at most
// math.MaxInt32 (past that no coverage model yields a read count, as
// channel.CoverageByName says), a non-negative retry count and a finite
// coverage backoff above 1. RetrieveAdaptive would otherwise sequence at a
// NaN or absurd coverage, or quietly replace a bad retry count or backoff
// with its default. names are the parameters' names in that order, as the
// caller's user knows them (flags or spec fields), for the error message.
func CheckRetrieve(names [4]string, errRate, coverage float64, retries int, backoff float64) error {
	switch {
	case !(errRate >= 0 && errRate <= 1):
		return fmt.Errorf("%s %v out of [0,1]", names[0], errRate)
	case !(coverage > 0 && coverage <= math.MaxInt32):
		return fmt.Errorf("%s %v out of range (0, %d]", names[1], coverage, math.MaxInt32)
	case retries < 0:
		return fmt.Errorf("%s %d negative", names[2], retries)
	case !(backoff > 1) || math.IsInf(backoff, 1):
		return fmt.Errorf("%s %v must be finite and above 1", names[3], backoff)
	}
	return nil
}

// RetrieveAdaptive runs the resilient read path end to end: sequence the
// pool, decode the object, and on failure retry with escalated coverage
// and a fresh derived seed — a cluster dropped by a stochastic fault in
// one pass is re-drawn in the next, and higher coverage rescues clusters
// starved below reconstruction quality. Cancellation is honored between
// clusters and between attempts. On success it returns the data, the final
// report and the attempts used; on exhaustion (or cancellation) the error
// is a *PartialRecoveryError carrying the last report.
func (p *Pool) RetrieveAdaptive(ctx context.Context, key string, factory SequencerFactory, pol RetryPolicy, seed uint64) ([]byte, RetrieveReport, int, error) {
	maxAttempts := pol.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	backoff := pol.Backoff
	if backoff <= 1 {
		backoff = 2
	}
	maxScale := pol.MaxScale
	if maxScale <= 0 {
		maxScale = 8
	}
	jitter := pol.Jitter
	switch {
	case jitter < 0:
		jitter = 0
	case jitter == 0:
		jitter = 0.1
	case jitter > 0.5:
		jitter = 0.5
	}
	// An unknown key is not retryable: fail before sequencing anything.
	if _, ok := p.keys[key]; !ok {
		return nil, RetrieveReport{Key: key}, 0, fmt.Errorf("store: unknown key %q", key)
	}
	scale := 1.0
	lastRep := RetrieveReport{Key: key}
	var lastErr error
	attempts := 0
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		attempts = attempt
		effScale := min(scale, maxScale)
		if jitter > 0 && attempt > 1 {
			// Seed-derived, attempt-indexed perturbation: deterministic for a
			// given retrieval, different across attempts.
			u := rng.New(deriveAttemptSeed(seed^0x6a09e667f3bcc908, attempt)).Float64()
			effScale *= 1 + jitter*(2*u-1)
		}
		ch, cov := factory(attempt, effScale)
		timer := obs.TimerFrom(ctx)
		var reads []dna.Strand
		stopSeq := timer.Start("store.sequence")
		reads, seqErr := p.SequenceCtx(ctx, ch, cov, deriveAttemptSeed(seed, attempt))
		stopSeq(len(reads))
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
		// Non-cancellation simulation errors (isolated cluster panics)
		// degrade to missing reads; the decode's erasure handling takes it
		// from there.
		_ = seqErr
		stopDec := timer.Start("store.decode")
		data, rep, err := p.retrieve(ctx, key, reads)
		stopDec(rep.TotalStrands)
		lastRep, lastErr = rep, err
		if pol.OnAttempt != nil {
			pol.OnAttempt(attempt, rep, err)
		}
		if err == nil {
			return data, rep, attempt, nil
		}
		scale *= backoff
	}
	// attempts stays 0 when the context was dead before the first
	// sequencing pass: the caller learns "was told to stop", not "gave up".
	return nil, lastRep, attempts, &PartialRecoveryError{Key: key, Attempts: attempts, Report: lastRep, Err: lastErr}
}

// deriveAttemptSeed splits a fresh sequencing seed per attempt (SplitMix64
// finalizer), so retries re-roll every stochastic choice.
func deriveAttemptSeed(seed uint64, attempt int) uint64 {
	return rng.Mix64(seed + uint64(attempt)*0x9e3779b97f4a7c15)
}
