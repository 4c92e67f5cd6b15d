# CI and humans run the same targets; see .github/workflows/ci.yml.

GO ?= go
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test race bench fmt fmt-check vet lint smoke serve-smoke load-smoke shard-smoke fleet-smoke sketch-smoke gridcache-smoke docs-check bench-diff fuzz

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The estimator's worker pool and state pooling are the code a race
# detector should watch; -short skips the full-scale solves.
race:
	$(GO) test -race -short ./...

# Single-shot benchmark pass: batched vs sequential nominee scoring,
# raw σ estimation and the end-to-end Amazon solve.
bench:
	$(GO) test -run '^$$' -bench 'Estimate|Solve' -benchtime 1x .

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck, pinned for reproducible CI; falls back to an installed
# binary when the toolchain has no module download access.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

# Tiny-scale solver smoke: exercises the full Dysim pipeline and emits
# the machine-readable BENCH_solve.json perf record.
smoke:
	$(GO) run ./cmd/imdppbench -fig solve -preset Amazon -scale 0.05 -mc 8 -benchout BENCH_solve.json
	@test -s BENCH_solve.json && echo "BENCH_solve.json written"

# Serving-layer smoke: boots imdppd on a random port, solves, asserts
# the cache-hit + cancel contracts end to end, and appends the service
# throughput record to BENCH_serve.json.
serve-smoke:
	./scripts/serve_smoke.sh

# Concurrent-client load smoke (DESIGN.md §11): N distinct-seeded
# solves contending for the daemon's worker pool, asserting the
# queue-wait and solve-wall latency histograms observed every client
# and appending the p50/p99 tail-latency record to BENCH_serve.json.
load-smoke:
	./scripts/load_smoke.sh

# Sharded-estimation smoke: boots two estimator workers plus two
# coordinators on random ports — one with weighted planning and
# speculation (the defaults), one with static planning — asserts σ and
# a full solve are bit-identical to a single-process daemon through
# both, and appends shard throughput to BENCH_shard.json.
shard-smoke:
	./scripts/shard_smoke.sh

# Elastic-fleet smoke (DESIGN.md §13): a dynamic coordinator plus
# three self-registering workers survive a kill -9 mid-solve, a
# SIGTERM graceful drain, and a rejoin — every σ bit-identical to a
# single-process daemon, zero failed jobs, an incompatible frame
# version refused 409 at registration, SIGHUP quota reload applied
# live. Appends a kind:"fleet" record to BENCH_shard.json.
fleet-smoke:
	./scripts/fleet_smoke.sh

# RR-sketch accuracy/throughput harness (DESIGN.md §9): per synthetic
# preset, asserts sketch σ within the additive ε·n·W contract of the
# MC ground truth and ≥5× σ-query throughput on the largest preset,
# appending the error/throughput records to BENCH_sketch.json.
sketch-smoke:
	$(GO) run ./cmd/imdppbench -fig sketch -scale 0.5 -evalmc 48 -sketchout BENCH_sketch.json
	@test -s BENCH_sketch.json && echo "BENCH_sketch.json written"

# Sample-grid memoization smoke (DESIGN.md §10): one CELF-heavy solve
# cold (empty grid cache) and once warm, asserting bit-identical
# results and a ≥1.5× warm speedup, appending the speedup/hit-rate
# record to BENCH_gridcache.json.
gridcache-smoke:
	$(GO) run ./cmd/imdppbench -fig gridcache -preset Amazon -scale 0.05 -mc 8 -gridout BENCH_gridcache.json
	@test -s BENCH_gridcache.json && echo "BENCH_gridcache.json written"

# Docs lint: internal/* doc.go package comments present, DESIGN.md §
# anchors referenced from code exist, README documents every imdppd
# route. --self-test proves the gate can fail.
docs-check:
	./scripts/docs_check.sh
	./scripts/docs_check.sh --self-test

# Perf-trajectory diff: warn (fail-soft) when the freshest
# samples_per_sec in a bench record dropped >10% against the previous
# one (CI artifact via BENCH_PREV_DIR, else HEAD, else in-file).
bench-diff:
	./scripts/bench_diff.sh BENCH_solve.json BENCH_serve.json BENCH_shard.json BENCH_sketch.json BENCH_gridcache.json

# Short fuzz pass over every wire-codec decoder and the cache spill-image
# reader (the seed corpora are committed under */testdata/fuzz).
fuzz:
	$(GO) test ./internal/wirebin -run '^FuzzReader$$' -fuzz '^FuzzReader$$' -fuzztime 10s
	$(GO) test ./internal/diffusion -run '^FuzzSampleGridCodec$$' -fuzz '^FuzzSampleGridCodec$$' -fuzztime 10s
	$(GO) test ./internal/gridcache -run '^FuzzGroupKeyCodec$$' -fuzz '^FuzzGroupKeyCodec$$' -fuzztime 10s
	$(GO) test ./internal/castore -run '^FuzzSpillImage$$' -fuzz '^FuzzSpillImage$$' -fuzztime 10s
	$(GO) test ./internal/graph -run '^FuzzDecodeBinaryExport$$' -fuzz '^FuzzDecodeBinaryExport$$' -fuzztime 10s
	$(GO) test ./internal/shard -run '^FuzzDecodeProblemUploadBinary$$' -fuzz '^FuzzDecodeProblemUploadBinary$$' -fuzztime 10s
	$(GO) test ./internal/shard -run '^FuzzDecodeEstimateRequestBinary$$' -fuzz '^FuzzDecodeEstimateRequestBinary$$' -fuzztime 10s
	$(GO) test ./internal/shard -run '^FuzzDecodeEstimateResponseBinary$$' -fuzz '^FuzzDecodeEstimateResponseBinary$$' -fuzztime 10s
