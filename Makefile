# CI runs exactly these targets; run them locally before pushing.

GO ?= go

.PHONY: build test test-short race race-repartition lifecycle-smoke bench bench-smoke bench-contract bench-pairs fuzz-smoke scenario-smoke scenario-guard fmt fmt-check vet lint-doc lint-invariants lint-deps loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-check the concurrency-heavy packages: the dynamic batcher and the
# lock-free dense hot path live in serving; metrics holds the lock-free
# utility bitset every gather touches; workload drives goroutine-based
# traffic generators, and deploy's Kubernetes model (fleet packing, HPA)
# runs its short tests beside them. model.New and serving.Preprocess fill,
# sort and permute tables on concurrent per-table workers
# (embedding.ForEachTable). The scenario harness runs without -short so its
# live runs (concurrent clients against fault-injected pools) execute under
# the detector, and so does the
# Sec. IV-D stress table, whose request generator runs on every stress
# worker at once.
race:
	$(GO) test -race -short ./internal/serving/... ./internal/metrics/... ./internal/deploy/... ./internal/workload/... ./internal/model/... ./internal/embedding/...
	$(GO) test -race -count=1 ./internal/scenario/...
	$(GO) test -race -count=1 -run 'TestStressTable$$' ./internal/core/

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# The zero-downtime plan-swap and model-lifecycle acceptance tests under
# the race detector: 8 concurrent clients, 10 swaps, deploy/undeploy under
# fire, both transports — plus the pull-pool invariant suite (no gather
# lost or duplicated across scale/kill churn, typed backpressure,
# drain-to-zero on close) and the frontend control loop (queue policy
# scale-out to the cap, cooldown spacing, scale-in to one; models deployed,
# swapped and undeployed under a running loop).
race-repartition:
	$(GO) test -race -run 'Repartition|Straggler|Cancels|Lifecycle|PullPool|LiveAutoscaler' -count=1 ./internal/serving/

# Closed-loop smoke: the three DP-planned scenario experiments in short
# mode (~5 s) — profile -> re-plan -> swap, two models on independent swap
# cadences, and deploy/undeploy/redeploy over the versioned admin frames on
# the predict listener. CI runs this in the checks job.
lifecycle-smoke:
	$(GO) run ./cmd/elasticrec -short repartition multimodel lifecycle

# One iteration of the micro-kernel benches, the ablations and the Fig. 13 /
# Fig. 16 memory comparisons — a CI smoke test that the development harness
# still runs, and that the partitioner, QPS-regression and server-reduction
# code only these benches call stays exercised. Output is kept as an
# artifact. It measures nothing: performance statements come from
# benchmark/ only.
bench-smoke:
	$(GO) test -run='^$$' -bench='Kernel|Ablation|Fig1[36]' -benchtime=1x .

# Benchmark contract: benchmark/ is a module of its own, so the root
# `go build ./...` / `go test ./...` never compile it and an internal API
# change can break the referee unnoticed. Vet and short-test it against the
# current internals, then run every workload in BENCHMARK.json for 3 s end
# to end through the contract entry point: each run's last line must report
# every reply correct. None failed is required on gather_tcp only —
# plan_swap may shed at the generator's in-flight cap on a slow runner.
bench-contract:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
	@for w in dense_local gather_tcp rows_cache_tcp plan_swap; do \
		out="$$(sh benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 | tail -n 1)"; \
		echo "$$w: $$out"; \
		case "$$out" in *'"correct":true'*) ;; *) echo "bench-contract: $$w: replies not all correct"; exit 1;; esac; \
		if [ $$w = gather_tcp ]; then \
			case "$$out" in *'"failed":0,'*) ;; *) echo "bench-contract: $$w: failed requests"; exit 1;; esac; \
		fi; \
	done

# Paired benchmark runs of the working tree against BASE (a git ref):
# BASE is extracted into a temporary directory (removed at the end), and
# each of N seeds runs benchmark/run.sh on both trees in ABBA order for
# BENCHMARK.json's run_seconds, plus AA pairs of BASE against itself. The
# benchmark's own -compare judges the two sides (exit 1 on a regressed
# metric or a larger failed share); the A/A table and per-pair wins are
# printed beside it. Not part of `make ci`: ~1 minute per pair on 2 vCPUs.
#   make bench-pairs BASE=HEAD~1 WORKLOADS=gather_tcp,plan_swap N=10
BASE ?= HEAD
WORKLOADS ?= gather_tcp
N ?= 10
AA ?= 2
SEED ?= 1001
bench-pairs:
	$(GO) run ./cmd/benchpairs -base $(BASE) -workloads $(WORKLOADS) -n $(N) -aa $(AA) -seed $(SEED)

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
# against the checked-in baselines (examples/scenarios/baselines/) on the
# hardware-independent gates only: absolute error-rate increase
# (fault-injection runs must stay at zero leaked failures), the
# replicas_added / swaps / rowcache_hit_rate counters, and nothing
# missing — every baseline row and artifact must still be produced.
# Latency is not judged here; that is benchmark/'s job. Refresh baselines
# by re-running `make scenario-smoke` and copying the artifacts into the
# baselines directory when a change legitimately adds, renames or removes
# rows.
scenario-guard:
	$(GO) run ./cmd/scenarioguard -baseline-dir examples/scenarios/baselines -current-dir .

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The arm64 lines vet tensor and embedding for a GOARCH without their
# assembly kernels, so the portable twins that such builds run (and the
# !amd64 files that select them) are type-checked on every amd64 vet too.
vet:
	$(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/tensor/...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/embedding/...

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
# The live stack also stays off the analytic simulator: internal/serving
# and its tests may not depend on deploy or perfmodel.
lint-deps:
	@for dir in . benchmark; do \
		found="$$(cd $$dir && $(GO) list -deps -test ./... | grep -x -e net/rpc -e encoding/gob)"; \
		if [ -n "$$found" ]; then \
			echo "lint-deps: module in $$dir depends on:"; echo "$$found"; exit 1; fi; \
	done
	@found="$$($(GO) list -deps -test ./internal/serving/... | grep -x -e repro/internal/deploy -e repro/internal/perfmodel)"; \
	if [ -n "$$found" ]; then \
		echo "lint-deps: internal/serving depends on:"; echo "$$found"; exit 1; fi

# Line count of non-test Go: one line per directory under internal/, cmd/
# and examples/ (subpackages count with their parent, so internal/serving
# includes wire/), then the total. It only reports; nothing gates on it,
# and ci does not run it.
loc:
	@total=0; for d in internal/* cmd/* examples/*; do \
		[ -d "$$d" ] || continue; \
		n=$$(find "$$d" -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
		[ "$$n" -gt 0 ] || continue; \
		printf '%6d  %s\n' "$$n" "$$d"; total=$$((total + n)); \
	done; printf '%6d  total\n' "$$total"

ci: fmt-check vet lint-doc lint-invariants lint-deps build test-short race race-repartition lifecycle-smoke scenario-smoke scenario-guard bench-smoke bench-contract fuzz-smoke
