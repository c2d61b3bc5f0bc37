# Convenience targets; plain `go build ./...` / `go test ./...` work too.
# `make help` lists them.

GO ?= go

.PHONY: all help build test lint lint-sarif lint-baseline race cover bench bench-obs bench-all bench-regress bench-baselines soak chaos crash stitch edge cluster experiments fmt vet clean

all: build test lint

help:
	@echo "Targets:"
	@echo "  build          go build ./..."
	@echo "  test           go test ./..."
	@echo "  lint           repo-specific static analysis (speedkit-lint); fails only on"
	@echo "                 findings not recorded in lint.baseline.json"
	@echo "  lint-sarif     same run, also writes lint.sarif for CI artifact upload"
	@echo "  lint-baseline  regenerate lint.baseline.json from current findings"
	@echo "  race           go test -race ./..."
	@echo "  cover          coverage for internal/..."
	@echo "  bench          one benchmark per table/figure (reduced scale)"
	@echo "  bench-obs      observability overhead benchmarks (0 allocs/op bar)"
	@echo "  bench-all      run every benchsuites/*.suite once at 1x (smoke, no gating)"
	@echo "  bench-regress  run every suite at full benchtime and diff against the"
	@echo "                 committed BENCH_*.json baselines; non-zero exit on regression"
	@echo "  bench-baselines  re-seed the BENCH_*.json baselines from this machine"
	@echo "  soak           3 M ops against one service under a simulated clock, and 200 000"
	@echo "                 minted paths through an edge: live heap and tracked-key counts"
	@echo "                 flat (also part of go test ./...; skipped under -short)"
	@echo "  chaos          seed-pinned fault-injection run asserting the resilience invariants"
	@echo "  crash          seed-pinned crash-recovery run asserting durability invariants"
	@echo "  stitch         two-process trace-stitching gate over real HTTP (traceparent"
	@echo "                 propagation, causal parentage, byte-deterministic export)"
	@echo "  edge           edge-cache smoke gate over real HTTP (stampede coalescing,"
	@echo "                 purge propagation, mid-fill kill + warm restart, zero"
	@echo "                 persisted PII)"
	@echo "  cluster        multi-node smoke gate: 3 sharded nodes over loopback HTTP"
	@echo "                 with seeded kills + partitions (exact sharded matching,"
	@echo "                 cluster-wide Δ-atomicity, twin-run determinism, zero leaks)"
	@echo "  experiments    regenerate every experiment at full scale"
	@echo "  fmt / vet / clean"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Repo-specific static analysis: GDPR boundary (import-, API-, and
# value-level), clock/lock/rand discipline, obs label hygiene. Exits
# non-zero only on findings absent from lint.baseline.json; baselined
# findings still print, marked as such.
lint:
	$(GO) run ./cmd/speedkit-lint ./...

# Same run, plus a SARIF 2.1.0 log (lint.sarif) for code-scanning upload.
lint-sarif:
	$(GO) run ./cmd/speedkit-lint -sarif lint.sarif ./...

# Regenerate the baseline. Additions to it deserve the same review as a
# //lint:ignore directive; a shrinking baseline is progress.
lint-baseline:
	$(GO) run ./cmd/speedkit-lint -write-baseline ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

# One testing.B benchmark per table/figure (reduced scale).
bench:
	$(GO) test -bench=. -benchmem .

# Observability overhead microbenchmarks: disabled/unsampled tracing and
# pre-resolved counter increments must hold 0 allocs/op (the hard gates
# live in internal/obs/alloc_test.go; this target shows the ns/op, at the
# -cpu 1 the obs suite gates at — see benchsuites/obs.suite for why).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchmem -cpu 1 .

# Continuous benchmark harness (cmd/speedkit-bent). Suites are the
# checked-in benchsuites/*.suite files; each names its bench regexp,
# package, committed baseline, and noise band.
#
# bench-all is the cheap loop: every suite once at -benchtime 1x, no
# gating — proves the benchmarks still compile and run.
# bench-regress is the gate: full benchtime, compared against the
# committed baselines, non-zero exit on any benchmark outside its band.
# BENT_NOISE_SCALE widens every ns/op band (CI uses this; alloc bands
# are absolute and never scale).
BENT_NOISE_SCALE ?= 1

bench-all:
	$(GO) run ./cmd/speedkit-bent -benchtime 1x -compare=false

bench-regress:
	$(GO) run ./cmd/speedkit-bent -noise-scale $(BENT_NOISE_SCALE)

# Re-seed every suite's baseline from this machine. Commit the resulting
# BENCH_*.json files together with whatever change justified the move.
bench-baselines:
	$(GO) run ./cmd/speedkit-bent -update

# Soak: the check that nothing is kept per request-supplied key. One
# core.Service takes 3 M operations (real pages, one fetch in six of a
# path never seen before, conditional requests for minted paths, a write
# every 100 ops) under a clock advancing 10 ms per op; an edge proxy takes
# 200 000 paths its upstream 404s. Live heap after GC at 20 % and at 100 %
# of the run must agree within 5 %, and the estimator, version-log and
# sketch-table key counts must be equal. Plain tests, so go test ./...
# runs them too; this target runs them alone with their checkpoints.
soak:
	$(GO) test -count=1 -v -run 'TestSoak' ./internal/core ./internal/edge

# Chaos gate: deterministic fault injection over a seed-pinned field run,
# executed twice and checked for identical fault schedules, Δ-atomicity of
# every connected load, ≥10% injected fault rates on the sketch and origin
# paths, and zero goroutine leaks. Non-zero exit on any violation.
CHAOS_SEED ?= 7
CHAOS_OPS ?= 20000

chaos:
	$(GO) run ./cmd/speedkit-sim -chaos -seed $(CHAOS_SEED) -ops $(CHAOS_OPS)

# Crash gate: seed-driven process kills torn into the WAL append/fsync and
# snapshot-write paths of a durable field run, executed as twin runs over
# separate data directories. Asserts every kill was recovered, Δ-atomicity
# of every connected load across recoveries, byte-identical recovered
# sketch state between the twins, and zero PII bytes in any persisted
# artifact. Non-zero exit on any violation.
CRASH_SEED ?= 3
CRASH_OPS ?= 5000

crash:
	$(GO) run ./cmd/speedkit-sim -crash -seed $(CRASH_SEED) -ops $(CRASH_OPS) -users 30 -products 100 -delta 30s

# Stitch gate: a device proxy and a server as two tracer domains joined
# only by real HTTP over loopback. One page load and one write must each
# yield a single cross-process trace (W3C traceparent propagation, causal
# parentage through the invalidation pipeline), and twin runs on the same
# seed must export byte-identical trace JSON. Non-zero exit on violation.
STITCH_SEED ?= 1

stitch:
	$(GO) run ./cmd/speedkit-sim -stitch -seed $(STITCH_SEED)

# Edge gate: a real speedkit-server and a speedkit edge proxy joined only
# by loopback HTTP. Asserts a 100-client stampede reaches the origin
# exactly once, backend writes purge the edge through the invalidation
# pipeline, the blocks API sent to the edge is its own 404, a device
# behind the edge takes its reco fragment from the origin with its user
# ID in no edge request, a seed-pinned kill torn into the disk tier's WAL mid-fill is
# recovered warm by an in-process restart serving byte-identical bodies
# without refetching, an edge nobody purges serves a write from its next
# sketch poll on (one overtaking a fill included), and no PII byte sits
# in anything the edge persisted. Non-zero exit on violation.
EDGE_SEED ?= 1

edge:
	$(GO) run ./cmd/speedkit-sim -edge -seed $(EDGE_SEED) -products 100

# Cluster gate: a 3-node coordinator-free deployment of the coherence
# kernel (cluster.Node; speedkit-server -nodes 3 runs the same in one
# process) — per-node shard sketches over per-node WALs, delta exchange
# over real loopback HTTP every Δ/30 — driven on one shared simulated
# clock with seeded node kills and exchange partitions. Asserts sharded
# invalidation matching equals a single unsharded engine, every cache
# serve under a sketch trusted for Δ less the cluster's lag stays within
# Δ of its first acknowledged write through every kill and partition,
# twin seeded runs export byte-identical merged sketches, no raw identity
# reaches any node's persisted bytes, and no goroutine leaks. Non-zero
# exit on violation. Pages through an edge in front of a cluster are
# TestEdgeInFrontOfACluster (internal/httpclient).
CLUSTER_SEED ?= 42

cluster:
	$(GO) run ./cmd/speedkit-sim -cluster -seed $(CLUSTER_SEED) -products 100

# Regenerate every experiment at full scale (minutes).
experiments:
	$(GO) run ./cmd/speedkit-bench

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
