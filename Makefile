GO ?= go

.PHONY: ci build test race vet lint lint-json suppress-check fmt-check docs-check bench bench-e2e bench-compare bench-pairs fuzz fuzz-regress

## ci: the standard verification gate — vet, build, race-enabled tests,
## the project linter, a gofmt cleanliness check, the suppression audit,
## the documents checked against the tree, and the checked-in fuzz corpus
## replayed as regression tests. Run before every commit.
ci: vet build race lint suppress-check fmt-check docs-check fuzz-regress

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

## docs-check: README.md, EXPERIMENTS.md, DESIGN.md and the verify skill
## may only name make targets, gigabench experiments, files and
## Benchmark…/Test…/Fuzz… functions that exist — and they, and the Go
## comments of the service and root packages, only gigaflow_… metrics the
## code registers.
docs-check:
	@sh scripts/docs-check.sh "$(GO)"

## bench: every micro-benchmark in the module (micro-costs and allocs/op;
## end-to-end and per-layer wall-clock numbers come from bench-e2e).
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
## FuzzOracle is the whole-datapath oracle: each entry names a cell of its
## matrix and a seed, and replays that seed's op tape through the cell and
## the first of its group against the never-cached Reference walk, with
## the ledger checked; the corpus holds a cell for every axis value and
## the cell and seed that caught each mutation the oracle is known to
## catch (results/pr25/README.md, results/pr26/README.md).
fuzz-regress:
	$(GO) test -run 'FuzzDecode|FuzzRSSHash' ./internal/packet
	$(GO) test -run 'FuzzEpochValid' ./internal/conntrack
	$(GO) test -run 'FuzzMicroflowOps' ./internal/microflow
	$(GO) test -run 'FuzzOpsDifferential' ./internal/flowtable
	$(GO) test -run 'FuzzInsertOps' ./internal/gigaflow
	$(GO) test -run 'FuzzOracle' ./service

## fuzz: actively fuzz the frame decoder for a short burst. New crashers
## land in internal/packet/testdata/fuzz/FuzzDecode — check them in.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 30s ./internal/packet
