GO ?= go

.PHONY: build test race conformance fuzz bench bench-check e2ebench-test loadgen-smoke smoke cluster-smoke docs-check fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package.
race:
	$(GO) test -race ./...

# The registry-wide conformance suites: every registered scenario kind
# through the full Scenario/Indexer contract (internal/scenario) and all
# four public endpoints (internal/service), plus the analytic-vs-simulation
# agreement tests. A named gate so a kind that regresses the registry
# contract is called out by name in CI.
conformance:
	$(GO) test -count=1 -run 'TestConformance|TestEveryKind|TestEveryIndexer|TestJacksonProductForm|TestMDPOptimalGain|TestRestlessLPBound' \
		./internal/scenario/... ./internal/service/...

# Native Go fuzzing of the two request decoders, each for a fixed 20s,
# seeded from the scenariotest bodies and the parse-contract table: any
# body must parse, hash and shape-check without panicking, and an accepted
# body must keep its hash through a re-encoding of its wire type. A
# crasher lands in internal/scenario/testdata/fuzz/ and fails `make test`
# until fixed.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 20s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzParseIndexRequest$$' -fuzztime 20s ./internal/scenario

# The benchmark table in scripts/bench_delta.sh pairs each benchmark
# pattern with the BENCH_*.json file recording it. `make bench` re-records
# every file (best of 3 runs); `make bench BENCH=BENCH_service.json`
# re-records only the named ones.
bench:
	./scripts/bench_delta.sh record $(BENCH)

# Benchmark regression gate over the same table: re-run every benchmark
# (best of BENCH_COUNT runs) and fail when any entry regresses more than
# BENCH_TOLERANCE_PCT (default 15) percent in ns/op or bytes/op against its
# checked-in baseline. Re-record with `make bench` after intentional
# changes.
bench-check:
	./scripts/bench_delta.sh $(BENCH)

# The end-to-end benchmark (e2ebench/) is its own Go module, so
# `go build ./...` does not see it; it calls the queueing and des APIs
# directly. Vet and test it on its own.
e2ebench-test:
	cd e2ebench && GOFLAGS=-mod=mod $(GO) vet ./... && GOFLAGS=-mod=mod $(GO) test ./...

# Loadgen smoke: start a real daemon and soak it through `stochsched
# loadgen -check` — zero non-429 errors and populated /v1/stats latency
# histograms required. LOADGEN_DURATION overrides the 30s default.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# End-to-end smoke of the stochschedd HTTP server: build, start, curl every
# endpoint against golden bodies, verify cache hits, sweep submit/poll/
# stream against golden rows, and cross-parallelism determinism of both
# simulate bodies and sweep NDJSON. Same script CI's service-smoke job runs.
smoke:
	./scripts/service_smoke.sh

# Multi-node smoke: build the daemon, start a 3-node loopback ring with
# -peers/-self, and require every node's simulate bodies and sweep NDJSON
# byte-identical to a single-node daemon's; then kill one peer (surviving
# nodes must keep answering identically) and round-trip a -state-dir
# snapshot across a SIGTERM restart (warm hits restored). Same script CI's
# cluster-smoke job runs.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Lint the documentation tree: every relative link in README.md, docs/, and
# examples/*/README.md must resolve to a file in the checkout.
docs-check:
	./scripts/docs_check.sh

fmt:
	gofmt -w .

fmt-check:
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "gofmt needed on:"; echo "$$diff"; exit 1; fi

vet:
	$(GO) vet ./...

# The CI entry point: identical to what .github/workflows/ci.yml runs.
ci: build vet fmt-check test race conformance fuzz e2ebench-test smoke cluster-smoke docs-check bench-check loadgen-smoke
