# predctl build/test entry points. `make check` is the tier-1 gate
# (README §Testing): build + vet + race-detector test run, the bar every
# change must clear.

GO ?= go

.PHONY: all build vet test race race-session explore-wide check loc loc-check bench bench-quick bench-compare bench-mem bench-chaos chaos-smoke bench-slice slice-smoke live-smoke bench-relay relay-smoke examples

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build vet race

# The session layer's concurrency tests, ten times over under the race
# detector (CI's "session layer" step; .github/workflows/ci.yml says what
# each covers): the sequence gate, relay forwarding and fold order, the
# mesh transport (a Close cutting a link's dial short among them),
# bundle ≡ Wait, the flush pass, the store's discards and
# failed appends, handshake-vs-broadcast order, fold ≡ replay⁻¹, every
# Hello's addressed answer (direct, relayed, past a broken uplink, from a
# relaunched relay), the root's decision core against a random model,
# the control plane's exhaustive explorer and its pasted early-epoch
# race, a stalled peer or root, a failed retransmit, Close, the relay
# table's bound, the epoch assembler's feeder racing ingest (its
# discards, and Wait's deposet equal to the bundle's, flat, relayed and
# lit), the interval stream it derives following every discard, and a
# stray candidate frame dropped, direct and relayed. Minutes.
RACE_SESSION := Inbound|RelayForward|RelayFoldNotBlocked|Supersede|RejoinHelloSurvivesRelayDeath|TransportHandshake|TransportReset|TransportClose|BundleEqualsWait|CandidateDoesNotWaitForTick|TestFlush|StoreFollowsEveryDiscard|FailedAppendStopsTheStore|HandshakeNotOvertaken|FoldInvertsReplay|RootFoldsWhatItBroadcasts|StatusNotBlockedByDecision|AdoptedEpochVoidsShutdown|CloseDuringResume|HelloAnswers|FanInCountsOnlyRunOrigins|SlowVerdictBlocksNoHandshake|StalledPeerDelaysOnlyItself|StalledWriteBlocksNoSender|ResumesAfterRetransmitFails|CloseLeavesNoWriter|RootCoreModel|RelayTableBounded|IncarnationStep|ExploreControlPlane|EarlyEpochRace|EpochAssemblerFollowsEveryDiscard|CommitPathEquivalence|LiveRunAssemblesOnce|LiveStreamFollowsEveryDiscard|StrayCandidateBatch

race-session:
	$(GO) test -race -count=10 -run '$(RACE_SESSION)' ./internal/node

# The control plane's explorer (internal/node/explore_test.go) at its
# larger bound: more relaunches and severs, n = 3 behind a relay. Tier-1
# runs the smaller bound in well under 2 s; this one takes minutes.
explore-wide:
	$(GO) test -run 'TestExploreControlPlane$$' -count=1 -timeout 1200s ./internal/node -explore-wide

# Non-test Go lines per package, bench/ excluded: the count a simplicity
# PR quotes before and after.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./... | grep -v '/bench$$'); do \
		printf '%6d .%s\n' "$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l)" "$${d#$(CURDIR)}"; \
	done | sort -k2 | awk '{n += $$1; print} END {printf "%6d total\n", n}'

# The most `make loc` may total. A change that grows the code raises
# this number in its own diff, where a reviewer sees it; one that shrinks
# it lowers the number to its result.
LOC_MAX := 19895

loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" {print $$1}'); \
	if [ "$$total" -gt $(LOC_MAX) ]; then \
		echo "make loc totals $$total non-test lines, over the ceiling of $(LOC_MAX) (LOC_MAX in the Makefile)"; exit 1; \
	fi; \
	echo "make loc: $$total of at most $(LOC_MAX)"

bench:
	$(GO) test -bench . -benchtime 1x ./...

# The repository benchmark (BENCHMARK.json, bench/README.md) at smoke
# size: every workload, inputs ÷ 50, every op checked. Seconds.
bench-quick:
	$(GO) run ./bench -quick

# Gate report B against report A (both written by `go run ./bench -out`)
# with the bounds BENCHMARK.json records: make bench-compare A=old.json B=new.json
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Allocation gate: the allocs-per-run pin tests (the flush pass's
# steady-state reuse among them, whose bound the race detector skips),
# then BenchmarkAssemble
# (the commit path's 256k-op assembly), BenchmarkDecode and
# BenchmarkEncode (the offline cycle's 250k-event trace file read and
# written), one iteration each as a smoke. The
# number itself is alloc_bytes_per_event in BENCHMARK.json, bound 10% on
# every workload.
bench-mem:
	$(GO) test -run 'AllocFree|AllocBound|SteadyStateReuse' ./internal/deposet ./internal/detect ./internal/node ./internal/offline ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkAssemble$$|BenchmarkDecode$$|BenchmarkEncode$$' -benchtime 1x -benchmem ./internal/node ./internal/trace

# Hierarchical-ingest gate: 64 nodes through a 2-level relay tree with
# one relay killed mid-run — full capture, zero restarts, the paper
# invariants, and live-verdict agreement with offline detection all
# required (see internal/expt/relay.go). The relay-smoke CI job runs
# exactly this; seconds, not minutes.
bench-relay relay-smoke:
	$(GO) run ./cmd/pcbench relay-smoke

# Regenerate the committed chaos-soak record: ≥60s of seeded
# crash/partition iterations (≥100 crash recoveries, ≥12 partition
# windows, coordinator-stream cuts included), each required to end with
# a complete capture and the paper invariants green (see
# internal/expt/chaos.go). Exits nonzero on any lost capture event or
# invariant violation.
bench-chaos:
	$(GO) run ./cmd/pcbench -out BENCH_chaos.json chaos

# A seconds-long slice of the same soak for CI: small cluster, few
# iterations, fixed seed — enough to catch crash-path regressions
# without the full minute.
chaos-smoke:
	$(GO) run ./cmd/pcbench chaos-smoke

# The live checker on the gated harness, at smoke size: capture-live
# fails on a live verdict that disagrees with offline detection on a
# violation-free run; live-loop joins each confirmed detection back to
# its witness candidate and requires the detections to land mid-run.
live-smoke:
	$(GO) run ./bench -quick -workload capture-live
	$(GO) run ./bench -quick -workload live-loop

# Regenerate the committed computation-slicing baseline: slice-based
# violation enumeration vs the exhaustive lattice walk, ns/op and states
# explored, with the slice's answer cross-validated against the
# exhaustive oracle on every enumerable workload (see
# internal/expt/slice.go).
bench-slice:
	$(GO) run ./cmd/pcbench -out BENCH_slice.json slice

# CI gate for the sliced dispatcher: seeded traces, slice vs exhaustive
# violation sets must match exactly and the slice must explore strictly
# fewer states. Seconds, not minutes.
slice-smoke:
	$(GO) run ./cmd/pcbench slice-smoke

# Every example program must still run to its verified/true line: each
# under a 30 s timeout, any non-zero exit fails.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; timeout 30 $(GO) run ./$$d >/dev/null || exit 1; \
	done
