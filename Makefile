# predctl build/test entry points. `make check` is the tier-1 gate
# (README §Testing): build + vet + race-detector test run, the bar every
# change must clear.

GO ?= go

.PHONY: all build vet test race check loc bench bench-quick bench-compare bench-mem bench-mem-baseline bench-cluster bench-chaos chaos-smoke bench-slice slice-smoke bench-obs bench-live live-smoke bench-relay relay-smoke

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

# Non-test Go lines per package, bench/ excluded: the count a simplicity
# PR quotes before and after.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./... | grep -v '/bench$$'); do \
		printf '%6d .%s\n' "$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l)" "$${d#$(CURDIR)}"; \
	done | sort -k2 | awk '{n += $$1; print} END {printf "%6d total\n", n}'

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

# Allocation gate: run the allocs-per-run pin tests, then re-measure the
# memory sweep and diff it against the committed BENCH_memory.json
# (fails on allocs/op or bytes/op growth beyond slack; see
# internal/expt/mem.go for the tolerances). BenchmarkAssemble is the
# commit path's 256k-op assembly and BenchmarkDecode the offline
# cycle's 250k-event trace file, one iteration each as a smoke.
bench-mem:
	$(GO) test -run 'AllocFree|AllocBound' ./internal/deposet ./internal/detect ./internal/node ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkAssemble$$|BenchmarkDecode$$' -benchtime 1x -benchmem ./internal/node ./internal/trace
	$(GO) run ./cmd/pcbench -compare BENCH_memory.json

# Regenerate the committed cluster baseline: real in-process clusters
# over loopback TCP at 8..128 nodes flat, 256/512 nodes flat vs a
# 2-level relay tree (plus an on-disk trace-store row with
# bundle-reassembly verification), and the coordinator ingest
# micro-benchmark, direct and relay-enveloped (see
# internal/expt/cluster.go). Every run must end with the paper
# invariants green.
bench-cluster:
	$(GO) run ./cmd/pcbench -cluster BENCH_cluster.json

# Hierarchical-ingest gate: 64 nodes through a 2-level relay tree with
# one relay killed mid-run — full capture, zero restarts, the paper
# invariants, and live-verdict agreement with offline detection all
# required (see internal/expt/relay.go). The relay-smoke CI job runs
# exactly this; seconds, not minutes.
bench-relay relay-smoke:
	$(GO) run ./cmd/pcbench -relay-smoke

# Regenerate the committed allocation baseline.
bench-mem-baseline:
	$(GO) run ./cmd/pcbench -membaseline BENCH_memory.json

# Regenerate the committed chaos-soak record: ≥60s of seeded
# crash/partition iterations (≥100 crash recoveries, ≥12 partition
# windows, coordinator-stream cuts included), each required to end with
# a complete capture and the paper invariants green (see
# internal/expt/chaos.go). Exits nonzero on any lost capture event or
# invariant violation.
bench-chaos:
	$(GO) run ./cmd/pcbench -chaos BENCH_chaos.json

# A seconds-long slice of the same soak for CI: small cluster, few
# iterations, fixed seed — enough to catch crash-path regressions
# without the full minute.
chaos-smoke:
	$(GO) run ./cmd/pcbench -chaos /tmp/chaos_smoke.json \
		-chaos-duration 2s -chaos-n 4 -chaos-crashes 4 -chaos-partitions 2

# Regenerate the committed live-observability overhead record: the same
# 32-node loopback cluster with observability dark vs fully lit
# (MetricsSnapshot frames on the capture stream + coordinator /metrics
# and /statusz under a continuous polling load); min-wall comparison
# (see internal/expt/obs.go).
bench-obs:
	$(GO) run ./cmd/pcbench -obs BENCH_obs.json

# Regenerate the committed live-detection record: 32-node violation-free
# loopback clusters with the streaming GW checker dark vs lit (min
# wall, ingest overhead), plus planted-violation runs joining each
# confirmed detection back to the witness candidate's journal event for
# the candidate-send→fire latency distribution (see
# internal/expt/live.go).
bench-live:
	$(GO) run ./cmd/pcbench -live BENCH_live.json

# CI slice of the same measurement: small cluster, few reps — exercises
# both the violation-free lit path (a false fire fails the run) and the
# planted-violation detection/latency join in seconds.
live-smoke:
	$(GO) run ./cmd/pcbench -live /tmp/live_smoke.json \
		-live-n 8 -live-reps 2 -live-latency-runs 3

# Regenerate the committed computation-slicing baseline: slice-based
# violation enumeration vs the exhaustive lattice walk, ns/op and states
# explored, with the slice's answer cross-validated against the
# exhaustive oracle on every enumerable workload (see
# internal/expt/slice.go).
bench-slice:
	$(GO) run ./cmd/pcbench -slice BENCH_slice.json

# CI gate for the sliced dispatcher: seeded traces, slice vs exhaustive
# violation sets must match exactly and the slice must explore strictly
# fewer states. Seconds, not minutes.
slice-smoke:
	$(GO) run ./cmd/pcbench -slice-smoke
