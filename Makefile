# CI runs exactly these targets; run them locally before pushing.

GO ?= go

.PHONY: build test test-short race race-repartition lifecycle-smoke bench bench-smoke bench-json bench-guard bench-contract fuzz-smoke scenario-smoke scenario-guard fmt fmt-check vet lint-doc lint-invariants lint-deps ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-check the concurrency-heavy packages: the dynamic batcher and the
# lock-free dense hot path live in serving; metrics holds the lock-free
# utility bitset every gather touches; cluster and workload drive
# goroutine-based control loops and traffic generators. The scenario
# harness runs without -short so its live runs (concurrent clients against
# fault-injected pools) execute under the detector.
race:
	$(GO) test -race -short ./internal/serving/... ./internal/metrics/... ./internal/cluster/... ./internal/workload/...
	$(GO) test -race -count=1 ./internal/scenario/...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# The zero-downtime plan-swap and model-lifecycle acceptance tests under
# the race detector: 8 concurrent clients, 10 swaps, deploy/undeploy under
# fire, both transports — plus the pull-pool invariant suite (no gather
# lost or duplicated across scale/kill churn, typed backpressure,
# drain-to-zero on close).
race-repartition:
	$(GO) test -race -run 'Repartition|Straggler|Cancels|Lifecycle|ReplanMemo|PullPool' -count=1 ./internal/serving/

# Control-plane smoke: the model-lifecycle closed loop (deploy/undeploy
# over the versioned admin frames on the predict listener) in short mode —
# CI runs this in the checks job.
lifecycle-smoke:
	$(GO) run ./cmd/elasticrec -short lifecycle

# One iteration of the micro-kernel and concurrent-serving benches — a CI
# smoke test that the harness still runs, with output kept as an artifact.
bench-smoke:
	$(GO) test -run='^$$' -bench='Kernel|ConcurrentPredict' -benchtime=1x .

# Machine-readable serving-bench artifact: name, ns/op, allocs/op and the
# closed-loop qps metric per bench row, for run-over-run trajectory diffs.
# Two steps (not a pipe) so a bench crash fails the target instead of
# being masked by benchjson's exit status. BENCH_serving.json is checked
# in as the bench-guard baseline — commit the refresh when a change
# legitimately moves it.
bench-json:
	$(GO) test -run='^$$' -bench='Serving|Wire' -benchmem -benchtime=20x . > bench-serving.txt
	$(GO) run ./cmd/benchjson < bench-serving.txt > BENCH_serving.json
	@echo "wrote BENCH_serving.json"

# Bench-regression smoke: re-measure the deterministic serving benches
# briefly and fail if allocs/op regressed >25% against the checked-in
# BENCH_serving.json baseline. Only the single-driver rows are guarded
# (EndToEndPredict, the Repartition regimes, and the Wire_Codec
# encode/decode rows — all deterministic allocators): the concurrent rows'
# allocs/op depends on the batch-fusing ratio, which varies with core
# count and timing — those stay trajectory-only in BENCH_serving.json.
# benchtime matches bench-json's 20x so first-op pool-miss allocations
# amortize identically on both sides (QueueDepthScaling also saturates its
# replica cap within that window, so its allocs/op is steady-state too).
# Refresh the baseline with `make bench-json` when a change legitimately
# moves it.
bench-guard:
	$(GO) test -run='^$$' -bench='Serving_(EndToEndPredict|Repartition|QueueDepthScaling)|Wire_Codec' -benchmem -benchtime=20x . > bench-guard.txt
	$(GO) run ./cmd/benchjson < bench-guard.txt > bench-guard.json
	$(GO) run ./cmd/benchguard -baseline BENCH_serving.json -current bench-guard.json -filter Serving_EndToEndPredict,Serving_Repartition,Serving_QueueDepthScaling,Wire_Codec -max-regress 0.25

# Benchmark contract: benchmark/ is a module of its own, so the root
# `go build ./...` / `go test ./...` never compile it and an internal API
# change can break the referee unnoticed. Vet and short-test it against the
# current internals, then run one short timed workload end to end through
# the contract entry point; its last line must report every reply correct
# and none failed.
bench-contract:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
	@out="$$(sh benchmark/run.sh --workload gather_tcp --seed 1 --seconds 4 --trace 0 | tail -n 1)"; \
	echo "$$out"; \
	case "$$out" in *'"correct":true'*) ;; *) echo "bench-contract: replies not all correct"; exit 1;; esac; \
	case "$$out" in *'"failed":0,'*) ;; *) echo "bench-contract: failed requests"; exit 1;; esac

# Fuzz smoke: run the wire fuzz targets briefly (the message codec, then
# the admin frame header) — malformed frames must error, never panic or
# over-allocate, and every frame that decodes must re-encode canonically.
# CI runs this in the checks job; run longer locally with e.g.
# -fuzztime=5m when touching the codec.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWireCodec -fuzztime=10s ./internal/serving/wire/
	$(GO) test -run='^$$' -fuzz=FuzzAdminFrame -fuzztime=10s ./internal/serving/wire/

# Scenario smoke: run every checked-in declarative scenario
# (examples/scenarios/*.json) in short mode against a live deployment,
# writing one BENCH_scenario_<name>.json artifact per spec into the repo
# root.
scenario-smoke:
	$(GO) run ./cmd/elasticrec -short scenario -config examples/scenarios -out .

# Scenario-regression gate: diff the freshly measured scenario artifacts
# against the checked-in baselines (examples/scenarios/baselines/) on
# p50/p99 latency ratio and absolute error-rate increase. The latency
# threshold is generous (4x) because CI hardware varies; the error-rate
# gate is hardware-independent — fault-injection runs must stay at zero
# leaked failures. Refresh baselines by re-running `make scenario-smoke`
# and copying the artifacts into the baselines directory when a change
# legitimately moves them.
scenario-guard:
	$(GO) run ./cmd/scenarioguard -baseline-dir examples/scenarios/baselines -current-dir .

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Documentation lint: every package must carry a godoc package comment
# (see docs/ARCHITECTURE.md for the layer map the comments plug into).
lint-doc:
	$(GO) run ./cmd/doccheck ./internal ./cmd ./examples

# Invariant lint: the internal/analysis suite typechecks the tree with
# go/types and enforces the hand-maintained pairing disciplines — epoch
# pins released on every path, pooled wire buffers recycled, atomic
# fields never mixed with plain access, contexts threaded first-param.
# Intentional violations are annotated in place with
# //lint:escape <pass> <reason>; see docs/ARCHITECTURE.md "Static
# invariants".
lint-invariants:
	$(GO) run ./cmd/invariantcheck ./internal/... ./cmd/...

# Dependency lint: the serving plane speaks one protocol
# (internal/serving/wire). net/rpc and encoding/gob would be a second one;
# neither module may depend on them, directly, transitively or from a test.
lint-deps:
	@for dir in . benchmark; do \
		found="$$(cd $$dir && $(GO) list -deps -test ./... | grep -x -e net/rpc -e encoding/gob)"; \
		if [ -n "$$found" ]; then \
			echo "lint-deps: module in $$dir depends on:"; echo "$$found"; exit 1; fi; \
	done

ci: fmt-check vet lint-doc lint-invariants lint-deps build test-short race race-repartition lifecycle-smoke bench-smoke bench-contract fuzz-smoke
