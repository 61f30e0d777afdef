GO ?= go

.PHONY: build test verify verify-race chaos-smoke fuzz-smoke examples-smoke bench bench-check loadcheck fleetcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification plus the race, chaos, fuzz and example gates — the
# target CI runs.
verify: build test verify-race chaos-smoke fuzz-smoke examples-smoke

# Race-detector pass over the concurrent packages: the simulator worker
# pool and checkpointing (internal/channel), the fault effects that write
# into each simulation worker's arena (drilled in internal/faults), the
# adaptive retrieve path (internal/store), the journal (internal/durable),
# the metrics registry / stage timer (internal/obs), and the get path's
# parallel reconstruction (internal/recon workers sharing the pooled
# internal/align script matrices and recon's pooled vote columns, over
# internal/cluster's output).
verify-race:
	$(GO) vet ./...
	$(GO) test -race ./internal/channel/... ./internal/faults/... ./internal/store/... ./internal/durable/... \
		./internal/obs/... ./internal/align/... ./internal/recon/... ./internal/cluster/...

# Chaos smoke: the dnasimd job-server drills — injected panics, stalls,
# overload shedding, breaker trips and the drain/resume cycle — plus the
# client/proxy drills (resets, slow-loris, blackholes, corrupted bodies,
# end-to-end conservation) and the fleet coordinator drills, all under the
# race detector. The explicit timeout makes a drain deadlock fail in
# minutes instead of hanging until go test's 10-minute default.
chaos-smoke:
	$(GO) test -race -count=1 -timeout 5m ./internal/server/... ./internal/client/... ./internal/chaosnet/... ./internal/fleet/...

# Short fuzz pass over every parser a program runs on on-disk bytes: the
# one durable frame reader over containers and journals (on a journal the
# frames OpenJournal keeps must be the sections Scrub lists before the
# first corrupt one, and the file it truncates must scrub untorn), the
# pool loader behind LoadFile (container sniff, kind check and legacy
# JSON), the cluster text format (Write→Read and raw Read), and the
# channel grammar (one target per field: faults,
# then stages) — plus the bit-parallel edit-distance kernel, called
# directly and through one align.Pattern reused from input to input, and
# the banded edit-script traceback, each against its full-matrix oracle,
# the shift-register Reed–Solomon encoder and clean check against the
# long-division/syndrome oracle, and recon's look-ahead pass (weighted and
# unweighted, forward and reversed) against the mutating-sweep oracle.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadContainer -fuzztime=10s ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzLoadPool -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzDatasetRoundTrip -fuzztime=10s ./internal/dataset/
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=10s ./internal/faults/
	$(GO) test -run='^$$' -fuzz=FuzzParseStages -fuzztime=10s ./internal/channel/
	$(GO) test -run='^$$' -fuzz=FuzzDistanceAtMost -fuzztime=10s ./internal/align/
	$(GO) test -run='^$$' -fuzz=FuzzScript -fuzztime=10s ./internal/align/
	$(GO) test -run='^$$' -fuzz=FuzzRSCodeword -fuzztime=10s ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzPass -fuzztime=10s ./internal/recon/

# Example smoke: build every examples/* program and run it in a temp dir
# (calibration and trainingdata write files to the working directory).
# Each example exits non-zero on an error, a panic or a failed round trip,
# so a run that exits 0 is a pass.
examples-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for d in examples/*/; do \
		name=$$(basename "$$d"); \
		echo "examples-smoke: $$name"; \
		$(GO) build -o "$$tmp/$$name" "./$$d" && (cd "$$tmp" && "./$$name" >/dev/null) || \
			{ echo "examples-smoke: $$name failed"; exit 1; }; \
	done

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
# ledger and spill file scrubbing clean afterwards. Timeout as in
# chaos-smoke.
fleetcheck:
	$(GO) test -race -count=1 -timeout 5m -run 'TestFleetDrill|TestFleetShardHandoffResume' ./internal/fleet/
