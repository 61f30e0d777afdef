GO ?= go

.PHONY: build test verify verify-race chaos-smoke fuzz-smoke bench bench-check loadcheck fleetcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification plus the race, chaos and fuzz gates — the target CI
# runs.
verify: build test verify-race chaos-smoke fuzz-smoke

# Race-detector pass over the concurrent packages: the simulator worker
# pool and checkpointing (internal/channel), the adaptive retrieve path
# (internal/store), the journal (internal/durable), and the metrics
# registry / stage timer (internal/obs).
verify-race:
	$(GO) vet ./...
	$(GO) test -race ./internal/channel/... ./internal/store/... ./internal/durable/... ./internal/obs/...

# Chaos smoke: the dnasimd job-server drills — injected panics, stalls,
# overload shedding, breaker trips and the drain/resume cycle — plus the
# client/proxy drills (resets, slow-loris, blackholes, corrupted bodies,
# end-to-end conservation) and the fleet coordinator drills, all under the
# race detector.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/server/... ./internal/client/... ./internal/chaosnet/... ./internal/fleet/...

# Short fuzz pass over every parser that consumes on-disk bytes: the
# durable container reader, the pool loader, the FASTA/FASTQ parsers, the
# fault-injection spec DSL, and the channel stage-pipeline DSL — plus the
# bit-parallel edit-distance kernel against its full-matrix oracle.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadContainer -fuzztime=10s ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzLoadPool -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzReadFASTA -fuzztime=10s ./internal/seqio/
	$(GO) test -run='^$$' -fuzz=FuzzReadFASTQ -fuzztime=10s ./internal/seqio/
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=10s ./internal/faults/
	$(GO) test -run='^$$' -fuzz=FuzzParseStages -fuzztime=10s ./internal/channel/
	$(GO) test -run='^$$' -fuzz=FuzzDistanceAtMost -fuzztime=10s ./internal/align/

# Benchmarks: one pass over the Go benchmarks (smoke, 1 iteration each)
# plus the machine-readable simulate hot-path measurement CI archives as an
# artifact.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...
	$(GO) run ./cmd/dnabench -json BENCH_sim.json

# Regression gate: re-measure the simulate hot paths and fail on >15%
# ns/op regression against the committed BENCH_sim.json baseline, or on
# allocs/op growth (absolute growth past an 8-alloc grace when the
# baseline is zero-alloc — a fraction of zero can't gate). The
# channel.transmit/* workloads additionally hard-fail the measurement
# itself if the default transmit path allocates at all: allocs/op on the
# packed AppendTransmit kernels must be exactly 0. The comparison report
# lands in BENCH_compare.txt (archived by CI even when the gate fails).
# After an intentional perf change, refresh the baseline with `make
# bench` on the reference machine and commit it.
bench-check:
	$(GO) run ./cmd/dnabench -compare BENCH_sim.json -compare-report BENCH_compare.txt

# Capacity & conservation gate, two entries in BENCH_serve.json: the
# single dnasimd server driven through the chaosnet fault proxy, and a
# 3-node fleet coordinator (crash-consistent ledger + spill on a temp
# dir). Both fail hard on any lost / duplicated / corrupted job, refresh
# their entry, and fail on capacity regression against the committed
# baseline (dnaload reads the baseline before rewriting the file, so one
# run both measures and gates). After an intentional capacity change,
# re-run and commit the refreshed BENCH_serve.json.
loadcheck:
	$(GO) run ./cmd/dnaload -rps 60 -jobs 90 -chaos -out BENCH_serve.json -compare BENCH_serve.json
	$(GO) run ./cmd/dnaload -rps 40 -jobs 60 -fleet-nodes 3 -out BENCH_serve.json -compare BENCH_serve.json

# Multi-node drills under the race detector: a coordinator over worker
# dnasimd servers with a forced node death mid-shard (plus the hedge and
# journal-handoff drills), the same node-death drill on a staged-pipeline
# spec (pool-stage coverage draws must survive sharding byte-identically
# and hit the shard cache on resubmission), and the kill-restart drill —
# the real dnasimd coordinator binary SIGKILLed mid-job, restarted on the
# same -data-dir, and required to finish the job byte-identically under
# its old ID with pre-kill shards served from the durable spill, every
# ledger and spill file scrubbing clean afterwards.
fleetcheck:
	$(GO) test -race -count=1 -run 'TestFleetDrill|TestFleetShardHandoffResume' ./internal/fleet/
