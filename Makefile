# CI and humans run the same targets; see .github/workflows/ci.yml.

GO ?= go
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test dysimbench-test race bench fmt fmt-check vet lint smoke serve-smoke load-smoke shard-smoke fleet-smoke sketch-smoke docs-check inline-check reach-check fuzz

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The committed benchmark is its own module (dysimbench/go.mod), so
# `go test ./...` at the root does not reach it. Its tests compare
# plain, grid-served, sharded and traced solves by Float64bits.
dysimbench-test:
	cd dysimbench && $(GO) test ./...

# The estimator's worker pool and the per-problem state pool are the
# code a race detector should watch: estimators on one problem borrow
# states from one shared free list (TestStateReuseConcurrent runs
# several at once). -short skips the full-scale solves.
race:
	$(GO) test -race -short ./...

# Single-shot benchmark pass: batched vs sequential nominee scoring,
# raw σ estimation and the end-to-end Amazon solve, each at one and two
# CPUs (at one CPU the solve runs the engine's one-goroutine branch);
# then the engine's own kernels (a campaign, a selection-shaped
# campaign, a scheduling sample), at a fixed count that warms the state
# pools so allocs/op shows the steady state; then a σ query through a
# new Estimator per op on a warm problem (B/op and allocs/op show that
# it borrows pooled states instead of building one); then one coin
# (ns/coin) drawn through a Rand and from a Stream held in locals, one
# Exp(1) variate (ns/draw) by the ziggurat and by a logarithm, one clean
# association row (ns/row, draws/row) subset-sampled and coin by coin,
# one promotion event over an 8-friend clean out-list (ns/event,
# draws/event) subset-sampled and coin by coin, and one Ppref read for
# a clean, a one-adoption and a moved-weights user (Δpref summed on
# demand); last, one shard estimate-response
# frame encoded and decoded (B/frame is its size on the wire).
bench:
	$(GO) test -run '^$$' -bench 'Estimate|Solve' -benchtime 1x -cpu 1,2 .
	$(GO) test -run '^$$' -bench '^Benchmark(RunCampaign|RunCampaignSelect|RunBatchPiSchedule)$$' -benchtime 2000x -benchmem ./internal/diffusion
	$(GO) test -run '^$$' -bench '^BenchmarkSigmaFreshEstimator$$' -benchmem ./internal/diffusion
	$(GO) test -run '^$$' -bench '^Benchmark(CoinRow|Exp)$$' -benchmem ./internal/rng
	$(GO) test -run '^$$' -bench '^BenchmarkAssocRow$$' ./internal/diffusion
	$(GO) test -run '^$$' -bench '^BenchmarkCleanArcs$$' ./internal/diffusion
	$(GO) test -run '^$$' -bench '^BenchmarkPref$$' ./internal/diffusion
	$(GO) test -run '^$$' -bench '^BenchmarkEstimateFrame$$' -benchmem ./internal/shard

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# dysimbench is its own module, so the root `go vet ./...` skips it
# (and `go test` runs only a subset of vet's checks).
vet:
	$(GO) vet ./...
	cd dysimbench && $(GO) vet ./...

# staticcheck, pinned for reproducible CI; falls back to an installed
# binary when the toolchain has no module download access.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

# Tiny-scale solver smoke: one Dysim solve through the imdpprun CLI,
# asserting a positive σ, at least one seed and a cost within budget
# (the output is captured first: jq -e passes on empty input).
smoke:
	out=$$($(GO) run ./cmd/imdpprun -dataset amazon -scale 0.05 -mc 8 -json) && \
		echo "$$out" | jq -e '.solution.sigma > 0 and .seed_count > 0 and .solution.cost <= 500'

# Serving-layer smoke: boots imdppd on a random port, solves, and
# asserts the cache-hit + cancel contracts end to end.
serve-smoke:
	./scripts/serve_smoke.sh

# Concurrent-client load smoke (DESIGN.md §11): N distinct-seeded
# solves contending for the daemon's worker pool, asserting the
# queue-wait and solve-wall latency histograms observed every client.
load-smoke:
	./scripts/load_smoke.sh

# Sharded-estimation smoke: boots two estimator workers plus one
# coordinator on random ports, asserts σ and a full solve are
# bit-identical to a single-process daemon and that both workers served
# shards.
shard-smoke:
	./scripts/shard_smoke.sh

# Elastic-fleet smoke (DESIGN.md §13): a dynamic coordinator plus
# three self-registering workers survive a kill -9 mid-solve, a
# SIGTERM graceful drain, and a rejoin — every σ bit-identical to a
# single-process daemon, zero failed jobs, an incompatible frame
# version refused 409 at registration, SIGHUP quota reload applied
# live.
fleet-smoke:
	./scripts/fleet_smoke.sh

# RR-sketch accuracy/throughput harness (DESIGN.md §9): per synthetic
# preset, asserts sketch σ within the additive ε·n·W contract of the
# MC ground truth and ≥5× σ-query throughput on the largest preset.
sketch-smoke:
	$(GO) run ./cmd/imdppbench -fig sketch -scale 0.5 -evalmc 48

# Docs lint: internal/* doc.go package comments present, DESIGN.md §
# anchors referenced from code exist, README documents every imdppd
# route, `make fuzz` runs every fuzz target, and every `make <target>`
# the README or DESIGN.md names exists. --self-test proves the gate
# can fail.
docs-check:
	./scripts/docs_check.sh
	./scripts/docs_check.sh --self-test

# Inlining guard (DESIGN.md §3): rng.Stream.next, Stream.Float64,
# Stream.Bernoulli, Stream.ExpFast, (*Rand).Uint64, pin.(*Model).Find
# and the engine's clampPref and skip inline, every Bernoulli call in
# the diffusion engine and the RR-sketch sampler inlines
# Stream.Bernoulli, every ExpFast call in the engine inlines
# Stream.ExpFast, every Find call in the engine's state.go inlines
# Model.Find, every clampPref call in the engine inlines clampPref, and
# every skip call in simulate.go inlines skip.
# --self-test proves the gate can fail.
inline-check:
	./scripts/inline_check.sh
	./scripts/inline_check.sh --self-test

# Reachability guard: every func under internal/ is linked into some
# program (cmd/*, examples/*, dysimbench) unless the script's
# allowlist names the test of live code that needs it. --self-test
# proves the gate can fail.
reach-check:
	./scripts/reach_check.sh
	./scripts/reach_check.sh --self-test

# Short fuzz pass over every wire-codec decoder, the cache spill-image
# reader and the daemon's solve and sigma request decoders (the seed
# corpora are committed under */testdata/fuzz or added in the test).
fuzz:
	$(GO) test ./internal/wirebin -run '^FuzzReader$$' -fuzz '^FuzzReader$$' -fuzztime 10s
	$(GO) test ./internal/diffusion -run '^FuzzSampleGridCodec$$' -fuzz '^FuzzSampleGridCodec$$' -fuzztime 10s
	$(GO) test ./internal/gridcache -run '^FuzzGroupKeyCodec$$' -fuzz '^FuzzGroupKeyCodec$$' -fuzztime 10s
	$(GO) test ./internal/castore -run '^FuzzSpillImage$$' -fuzz '^FuzzSpillImage$$' -fuzztime 10s
	$(GO) test ./internal/graph -run '^FuzzDecodeBinaryExport$$' -fuzz '^FuzzDecodeBinaryExport$$' -fuzztime 10s
	$(GO) test ./internal/pin -run '^FuzzDecodeRowsBinary$$' -fuzz '^FuzzDecodeRowsBinary$$' -fuzztime 10s
	$(GO) test ./internal/shard -run '^FuzzDecodeProblemUploadBinary$$' -fuzz '^FuzzDecodeProblemUploadBinary$$' -fuzztime 10s
	$(GO) test ./internal/shard -run '^FuzzDecodeEstimateRequestBinary$$' -fuzz '^FuzzDecodeEstimateRequestBinary$$' -fuzztime 10s
	$(GO) test ./internal/shard -run '^FuzzDecodeEstimateResponseBinary$$' -fuzz '^FuzzDecodeEstimateResponseBinary$$' -fuzztime 10s
	$(GO) test ./cmd/imdppd -run '^FuzzSolveRequest$$' -fuzz '^FuzzSolveRequest$$' -fuzztime 10s
	$(GO) test ./cmd/imdppd -run '^FuzzSigmaRequest$$' -fuzz '^FuzzSigmaRequest$$' -fuzztime 10s
