GO ?= go

.PHONY: ci build test race vet lint lint-json suppress-check fmt-check bench bench-e2e bench-compare bench-pairs bench-gate bench-json fuzz fuzz-regress

## ci: the standard verification gate — vet, build, race-enabled tests,
## the project linter, a gofmt cleanliness check, the suppression audit,
## and the checked-in fuzz corpus replayed as regression tests. Run
## before every commit.
ci: vet build race lint suppress-check fmt-check fuzz-regress

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## lint: gflint, the project-specific analyzer suite (hotalloc, hotcall,
## goroleak, atomicmix, lockdiscipline, detrand). Separate from vet so
## generic and project-invariant failures are distinguishable. Builds the
## binary once (the suite shares one type-checked program; `go run` would
## rebuild per invocation), prints the per-analyzer coverage summary, and
## regenerates the checked-in HOTPATH.md certification report — commit it
## when it changes. Exit 1 means findings; exit 2 means gflint itself
## could not load or parse the module.
lint:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/gflint ./cmd/gflint && \
	$$tmp/gflint -summary -hotcert HOTPATH.md ./...

## lint-json: the same run as a machine-readable artifact (findings plus
## per-analyzer coverage) in gflint.json, for CI upload. Exit status
## propagates like lint's.
lint-json:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/gflint ./cmd/gflint && \
	$$tmp/gflint -json ./... > gflint.json; \
	status=$$?; echo "wrote gflint.json"; exit $$status

## suppress-check: audit //gflint:ignore suppressions. Production code
## carries none (TestModuleClean enforces zero); any that ever appear
## must name an analyzer and a reason — a bare ignore fails here. The
## testdata fixtures are exempt: they exercise the directive itself.
suppress-check:
	@out=$$(grep -rn --include='*.go' '//gflint:ignore' . | grep -v '/testdata/' | \
		grep -vE '//.*//gflint:ignore' | grep -v '".*//gflint:ignore' | \
		grep -vE '//gflint:ignore [a-z]+ [^ ]+'); \
	if [ -n "$$out" ]; then \
		echo "reason-less //gflint:ignore (format: //gflint:ignore <analyzer> <reason>):"; \
		echo "$$out"; exit 1; fi

## fmt-check: testdata fixtures are excluded — they intentionally contain
## findings and `// want` annotations laid out for the analyzer tests.
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

## bench-e2e: one end-to-end run of the repository's benchmark (bench/,
## BENCHMARK.json) per workload, tracing off. Set OUT=<file.jsonl> to
## append each run as a record for bench-compare, SEED=<n> for another
## seed. The parent/change procedure of bench/README.md is this target
## run in each checkout, then bench-compare.
BENCH_WORKLOADS = warm-exact warm-ltm cold-churn nat-conn
SEED ?= 1
bench-e2e:
	@for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed $(SEED) --seconds 8 --trace 0 $(if $(OUT),--out $(OUT)) || exit 1; \
	done

## bench-compare: compare two files of run records, A the parent's and B
## the change's: per workload and end-to-end metric both medians, how
## much worse B is, each side's spread, and ok / exceeds / unresolved
## against BENCHMARK.json's bounds. Exits non-zero on any `exceeds`.
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=parent.jsonl B=change.jsonl"; exit 2; }
	@bash bench/run.sh -compare $(A) $(B)

## bench-pairs: the alternating parent/change campaign behind a perf claim
## (bench/README.md "Comparing two commits"), as every perf PR since 13
## ran it by hand. PARENT is a checkout of the parent commit (a clone or
## an archive, not a worktree); this tree is the change. Each side is
## built once by its own bench/run.sh (asked to -check an empty file: it
## builds, and has nothing to run), then for every seed the two built
## binaries run back to back from their own roots, odd pairs change first
## and even pairs parent first (with SEEDS=1-10 that is seed parity), the
## workloads interleaved per seed, and every run is appended to
## OUT/parent-NAME.jsonl or OUT/change-NAME.jsonl. It ends with the
## bench-compare table of the two files (the rows of W alone when W is
## set) and fails on an `exceeds`. Run nothing else on the box meanwhile.
##   make bench-pairs PARENT=<checkout> OUT=results/prN [W=<workload>] [SEEDS=1-10]
## SEEDS is a range a-b or a list ("1 1 1" repeats a seed); TRACE=1 takes
## the per-layer runs instead (no table: bench-compare's is end-to-end
## only); NAME names the pair of files, by default after the rest.
SEEDS ?= 1-10
TRACE ?= 0
NAME ?= $(if $(filter 1,$(TRACE)),traced-)$(if $(W),$(W)-)seeds-$(SEEDS)
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(OUT)" || { echo "usage: make bench-pairs PARENT=<checkout> OUT=results/prN [W=<workload>] [SEEDS=1-10] [TRACE=1] [NAME=<files>]"; exit 2; }
	@test -f "$(PARENT)/bench/run.sh" || { echo "bench-pairs: $(PARENT) is not a checkout with bench/run.sh"; exit 2; }
	@set -e; mkdir -p "$(OUT)"; out=$$(cd "$(OUT)" && pwd); change=$$PWD; parent=$$(cd "$(PARENT)" && pwd); \
	name=$$(printf %s "$(NAME)" | tr ' ' '_'); \
	for dir in $$parent $$change; do \
		(cd $$dir && bash bench/run.sh -check /dev/null >/dev/null 2>&1) || true; \
		test -x $$dir/.bench_build/gfbench || { echo "bench-pairs: $$dir did not build"; exit 1; }; \
	done; \
	case "$(SEEDS)" in *-*) seeds=$$(seq $(subst -, ,$(SEEDS)));; *) seeds="$(SEEDS)";; esac; \
	n=0; for seed in $$seeds; do n=$$((n+1)); \
		if [ $$((n % 2)) = 1 ]; then order="change parent"; else order="parent change"; fi; \
		for w in $(or $(W),$(BENCH_WORKLOADS)); do \
			for side in $$order; do \
				if [ $$side = parent ]; then dir=$$parent; else dir=$$change; fi; \
				(cd $$dir && ./.bench_build/gfbench --workload $$w --seed $$seed --seconds 8 --trace $(TRACE) \
					--out $$out/$$side-$$name.jsonl >/dev/null) || exit 1; \
			done; \
		done; \
	done; \
	if [ "$(TRACE)" = 1 ]; then exit 0; fi; \
	table=$$(./.bench_build/gfbench -compare $$out/parent-$$name.jsonl $$out/change-$$name.jsonl) || true; \
	echo "$$table" | grep -E 'verdict|$(or $(W),.)'; \
	! echo "$$table" | grep -E '$(or $(W),.)' | grep -qE 'exceeds|missing'

## bench-gate: wall-clock performance floors, opt-in (not part of `test`),
## gated by GF_BENCH_GATE=1:
##   - SubmitBatch at the default batch size must stay at least 2x faster
##     per packet than per-packet Submit on the warmed service pipeline
##     (what a batch amortises is the fixed cost of one submission; an
##     idle shard's submitter runs its own packets either way).
##   - latency attribution (histograms + flight recorder, the default
##     config) must cost at most 12 ns/pkt over a NoLatency service on the
##     same batched datapath, at 0 allocs/op (what 5% was worth when the
##     path still paid a queue hop; see instrumentBudgetNs).
##   - the fused-probe classifier must beat the map-backed baseline by at
##     least 1.4x on the cold high-mask-diversity slow-path sweep, at zero
##     allocations.
##   - during a cold-flow storm, a warm flow's p99 blocking-submit latency
##     with the async upcall offload must be at least 2x better than the
##     same workload processed inline (head-of-line blocking floor).
##   - connection tracking must cost at most 12 ns/pkt on stateless
##     traffic: a conntrack-enabled service pushing plain TCP flows
##     through a stateless pipeline vs the identical service with
##     tracking off, at 0 allocs/op.
##   - RSS wire-hash sharding must scale: 2 shards must deliver at least
##     1.5x single-shard throughput (measured wall clock on >=4 cpus,
##     t_submit + t_worker/N from measured stage costs otherwise), and
##     the RSS 5-tuple extractor and the ingestion stage must run at
##     0 allocs/op.
bench-gate:
	GF_BENCH_GATE=1 $(GO) test -run TestBatchThroughputGate -count=1 -v ./service
	GF_BENCH_GATE=1 $(GO) test -run TestLatencyOverheadGate -count=1 -v ./service
	GF_BENCH_GATE=1 $(GO) test -run TestSlowpathProbeGate -count=1 -v ./internal/tss
	GF_BENCH_GATE=1 $(GO) test -run TestUpcallHOLGate -count=1 -v ./service
	GF_BENCH_GATE=1 $(GO) test -run TestConntrackOverheadGate -count=1 -v ./service
	GF_BENCH_GATE=1 $(GO) test -run TestShardScalingGate -count=1 -v ./service

## bench-json: regenerate the checked-in benchmark reports:
##   - BENCH_slowpath.json — wall-clock slow-path (cold caches, low
##     locality, high mask diversity) and hit-path (warm) per-packet cost
##     on both backends, with allocs/op and hit rates.
##   - BENCH_latency.json — per-tier latency percentile ladders
##     (p50/p90/p99/p999) from the attribution layer under a warm steady
##     state and a cold-start storm, with flight-recorder counters.
##   - BENCH_upcall.json — warm-flow latency ladder under a cold-flow
##     storm, inline vs async upcall offload, with upcall counters.
##   - BENCH_dnslb.json — the stateful DNS load-balancer scenario
##     (conntrack, DNAT pool pinning, ct_state pipeline, epoch
##     invalidation) on both cache backends, with conntrack counters.
##   - BENCH_shards.json — RSS wire-hash sharding at 1/2/4/8 shards on
##     stateless and NAT-stateful wire mixes: measured ns/pkt, per-shard
##     packet spread, stage costs (t_submit/t_worker), and the modeled
##     throughput ladder 1/(t_submit + t_worker/N).
bench-json:
	$(GO) run ./cmd/gigabench -exp slowpath -flows 20000 -json BENCH_slowpath.json
	$(GO) run ./cmd/gigabench -exp latency -flows 20000 -json BENCH_latency.json
	$(GO) run ./cmd/gigabench -exp upcall -json BENCH_upcall.json
	$(GO) run ./cmd/gigabench -exp dnslb -json BENCH_dnslb.json
	$(GO) run ./cmd/gigabench -exp shards -json BENCH_shards.json

## fuzz-regress: replay the checked-in seed corpora (testdata/fuzz and
## the f.Add seeds) through the fuzz targets in plain-test mode — fast,
## deterministic, part of ci. FuzzRSSHash doubles as the differential
## oracle: extractor output must agree with the full decoder on every
## corpus input. FuzzMicroflowOps and FuzzOpsDifferential replay op tapes
## through the Microflow tier and the flow table against their map-backed
## reference models, FuzzInsertOps through the LTM cache's
## probe-before-build install against the build-then-dedupe original, and
## FuzzEpochValid through the connection table against a model of which
## stamps a connection's death, tuple reuse or NAT binding has outdated.
fuzz-regress:
	$(GO) test -run 'FuzzDecode|FuzzRSSHash' ./internal/packet
	$(GO) test -run 'FuzzEpochValid' ./internal/conntrack
	$(GO) test -run 'FuzzMicroflowOps' ./internal/microflow
	$(GO) test -run 'FuzzOpsDifferential' ./internal/flowtable
	$(GO) test -run 'FuzzInsertOps' ./internal/gigaflow

## fuzz: actively fuzz the frame decoder for a short burst. New crashers
## land in internal/packet/testdata/fuzz/FuzzDecode — check them in.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 30s ./internal/packet
