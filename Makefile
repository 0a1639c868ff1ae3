GO ?= go

.PHONY: ci build test race vet lint lint-json fmt-check docs docs-check bench bench-smoke bench-e2e bench-compare bench-pairs fuzz fuzz-regress

## ci: the standard verification gate — vet, build, race-enabled tests,
## the project linter, a gofmt cleanliness check and one iteration of
## every benchmark. Run before every commit. The race step is every test
## of the module, so it also checks the documents against the tree
## (TestDocs, docs-check), replays every checked-in fuzz corpus
## (fuzz-regress) — those two targets run the same checks alone, without
## -race — and audits suppressions: TestModuleClean fails on any
## //gflint:ignore outside the testdata fixtures.
ci: vet build race lint fmt-check bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## lint: gflint, the project-specific analyzer suite (hotalloc, hotcall,
## goroleak, atomicmix, lockdiscipline, detrand, deadcode). Separate from vet so
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

## fmt-check: testdata fixtures are excluded — they intentionally contain
## findings and `// want` annotations laid out for the analyzer tests.
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## docs: regenerate README.md's reference tables — metrics, endpoints,
## service.Config, command flags — from the code (TestDocs -update, like
## TestGolden's). Commit the result: a stale table fails go test.
docs:
	$(GO) test -run '^TestDocs$$' ./service -update

## docs-check: the documents name only what exists. TestDocs checks
## README's generated tables, every Service/Batch/VSwitch name the
## documents cite (read from the declarations with go/parser), every
## gigaflow_… metric, Config path and command flag the documents (and the
## service and root packages' Go comments) name, and every make target,
## gigabench experiment, file and Benchmark…/Test…/Fuzz… function.
docs-check:
	$(GO) test -run '^TestDocs$$' ./service

## bench: every micro-benchmark in the module (micro-costs and allocs/op;
## end-to-end and per-layer wall-clock numbers come from bench-e2e).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

## bench-smoke: every Benchmark… of the module run once (-benchtime 1x),
## so a benchmark that no longer builds, fails its own checks or panics
## fails CI; it measures nothing (≈20 s on 2 vCPUs).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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
## the f.Add seeds) through every Fuzz… target of the module in plain-test
## mode — fast and deterministic; ci's race step runs the same replay.
## FuzzRSSHash holds the RSS extractor, which only bench/'s packet.rss
## stage still times, to the full decoder on every corpus input. FuzzParseMatch and
## FuzzParseKey round-trip String through the parser, which crosses every
## field's packed-key accessors, and FuzzRewrite holds the cache entries'
## masked-overwrite commit to the set-field action list it folds.
## FuzzResumeWalk holds a walk resumed at any step of a full walk of the
## five paper pipelines to that walk's suffix, the premise a stalled miss
## resumes on. FuzzLoad round-trips accepted programs through the ofp
## parser's dump and load, the path service.New clones every pipeline
## through. FuzzMicroflowOps and FuzzOpsDifferential replay op tapes
## through the Microflow tier and the flow table against their map-backed
## reference models, FuzzInsertOps through the LTM cache's
## probe-before-build install — at an offset too, as a resumed miss
## installs its suffix — against the build-then-dedupe original, and
## FuzzEpochValid through the connection table against a model of which
## stamps a connection's death, tuple reuse or NAT binding has outdated.
## FuzzOracle is the whole-datapath oracle: each entry names a cell of its
## matrix and a seed, and replays that seed's op tape through the cell and
## the first of its group against the never-cached Reference walk, with
## the ledger checked; the corpus holds a cell for every axis value and
## the cell and seed that caught each mutation the oracle is known to
## catch (results/pr25/README.md, results/pr26/README.md).
fuzz-regress:
	$(GO) test -run '^Fuzz' ./...

## fuzz: actively fuzz the frame decoder for a short burst. New crashers
## land in internal/packet/testdata/fuzz/FuzzDecode — check them in.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 30s ./internal/packet
