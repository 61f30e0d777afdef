package faults

import (
	"fmt"
	"sync/atomic"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Process-level drill injectors. Unlike the channel grammar's fault
// directives — which draw from the per-cluster RNG and therefore recur
// identically on every retry — these model *transient* runtime failures:
// a worker that panics a few times and then behaves, a read that hangs
// until an operator intervenes, a channel that is merely slow. They keep
// their state in shared atomic counters and never consume RNG draws, so a
// retry after the fault window closes reproduces the fault-free output
// byte for byte. That property is what lets the dnasimd chaos drill
// assert "supervised retries converge to the sequential result".

// FlakyPanic panics inside AppendTransmit while *Remaining is positive
// (decrementing it per call), then delegates untouched. SimulateCtx
// confines each panic to its cluster, so the first few clusters fail,
// the supervisor retries the job, and the retry — the fault budget now
// spent — regenerates every cluster identically to an undisturbed run.
type FlakyPanic struct {
	// Base produces reads once the fault budget is spent.
	Base channel.Channel
	// Remaining is the shared number of AppendTransmit calls left to
	// sabotage.
	Remaining *atomic.Int64
}

// AppendTransmit implements channel.Channel.
func (f FlakyPanic) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *channel.Scratch) []byte {
	if f.Remaining.Add(-1) >= 0 {
		panic("faults: injected transient panic")
	}
	return f.Base.AppendTransmit(dst, ref, r, scr)
}

// Name implements channel.Channel.
func (f FlakyPanic) Name() string { return f.Base.Name() + "+flakypanic" }

// Stall blocks AppendTransmit on Release while *Remaining is positive
// (decrementing per call), modelling a hung I/O dependency: the goroutine
// makes no progress and cannot be preempted, exactly the failure a stall
// watchdog exists to catch. The test closes Release to let the abandoned
// goroutine unwind. No RNG state is consumed while blocked, so a
// requeued attempt is byte-identical to an unstalled run.
type Stall struct {
	// Base produces the read once the stall window has passed.
	Base channel.Channel
	// Release unblocks every stalled call when closed.
	Release <-chan struct{}
	// Remaining is the shared number of AppendTransmit calls left to
	// stall.
	Remaining *atomic.Int64
}

// AppendTransmit implements channel.Channel.
func (s Stall) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *channel.Scratch) []byte {
	if s.Remaining.Add(-1) >= 0 {
		<-s.Release
	}
	return s.Base.AppendTransmit(dst, ref, r, scr)
}

// Name implements channel.Channel.
func (s Stall) Name() string { return s.Base.Name() + "+stall" }

// SlowChannel sleeps Delay before every AppendTransmit — a healthy but slow
// channel, used by drain drills that need a job to still be mid-flight
// when the shutdown signal lands. Output is byte-identical to Base.
type SlowChannel struct {
	// Base produces the read.
	Base channel.Channel
	// Delay is the per-read latency.
	Delay time.Duration
}

// AppendTransmit implements channel.Channel.
func (s SlowChannel) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *channel.Scratch) []byte {
	time.Sleep(s.Delay)
	return s.Base.AppendTransmit(dst, ref, r, scr)
}

// Name implements channel.Channel.
func (s SlowChannel) Name() string {
	return fmt.Sprintf("%s+slow(%s)", s.Base.Name(), s.Delay)
}
