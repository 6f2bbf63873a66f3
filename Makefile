# Tier-1 verification is one command: `make` (or `make check`).
# `make check` mirrors CI's gate steps (.github/workflows/ci.yml); CI
# additionally records a bench-json artifact.

GO ?= go
BENCH_DATE := $(shell date -u +%F)
BENCH_OUT ?= BENCH_$(BENCH_DATE).json

.PHONY: check build vet fmt-check lint doclint print-staticcheck-version vulncheck print-govulncheck-version test race cover cover-check serve smoke-load bench bench-smoke bench-golden bench-thermal bench-json bench-ab load-json smoke-expm fuzz-smoke check-386 fma-check loc clean

check: fmt-check vet lint doclint build race bench-smoke bench-golden smoke-expm smoke-load fuzz-smoke check-386 fma-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs the pinned version; locally
# the target degrades to a skip-with-hint when the binary is absent, so
# `make check` works in offline sandboxes.
STATICCHECK ?= staticcheck
STATICCHECK_VERSION ?= 2025.1

# Single source of truth for the pinned version; CI installs
# `@$(make -s print-staticcheck-version)` so the workflow cannot drift.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

lint:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "lint: staticcheck not found; skipping (install: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan over the dependency graph (trivially small
# here — the module is stdlib-only — but the gate keeps it that way).
# Pinned like staticcheck; degrades to a skip-with-hint offline. CI
# runs it warn-only: a new CVE in the toolchain must not block
# unrelated work, only annotate it.
GOVULNCHECK ?= govulncheck
GOVULNCHECK_VERSION ?= v1.1.4

print-govulncheck-version:
	@echo $(GOVULNCHECK_VERSION)

vulncheck:
	@if command -v $(GOVULNCHECK) >/dev/null 2>&1; then \
		$(GOVULNCHECK) ./...; \
	else \
		echo "vulncheck: govulncheck not found; skipping (install: go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Documentation and API gate: the thermbal facade must document every
# exported symbol; every internal and cmd package must carry a package
# doc comment (commands render it as their usage block); and every
# exported function or method in internal/ must have a use in a
# non-test file of the module or of bench/, resolved with go/types
# (interface methods and a two-name allow-list in cmd/godoclint are
# exempt). A helper only tests need belongs in a _test.go file, or in
# export_test.go for an external test package.
doclint:
	$(GO) run ./cmd/godoclint -exported . -pkgdoc ./internal/... -pkgdoc ./cmd/... -unused-exports .

# Fails when any Go file is not gofmt-clean. Hidden directories (the
# benchmark's build cache, bench-ab's base worktree) are skipped, as in
# `make loc`.
fmt-check:
	@out=$$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The service's end-to-end checks run here as package tests against a
# loopback server: cache byte-identity and X-Timing, every counter on
# /metrics and its reference table in docs/OPERATIONS.md,
# kill-and-restart store hits, inclusion proofs (internal/service),
# and thermproof's offline verdicts and exit statuses (cmd/thermproof).
race:
	$(GO) test -race ./...

# Coverage profile + per-function summary. cover-check compares the
# total against the floor; CI enforces it as a hard gate on the go.mod
# leg and warn-only on the stable leg (a new toolchain must not turn a
# coverage wobble into a red build). The floor trails the measured
# total by about a point — raise it as coverage grows.
COVER_FLOOR ?= 74.8
COVER_OUT ?= coverage.out
COVER_FLAGS ?=

cover:
	$(GO) test $(COVER_FLAGS) -coverprofile=$(COVER_OUT) ./...
	@$(GO) tool cover -func=$(COVER_OUT) | tail -1

# Reads an existing $(COVER_OUT) (run `make cover` first; CI does).
cover-check:
	@test -f $(COVER_OUT) || { echo "cover-check: $(COVER_OUT) missing; run 'make cover' first"; exit 1; }
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { gsub("%",""); print $$NF }'); \
	echo "coverage: total $${total}% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage: below the $(COVER_FLOOR)% floor"; exit 1; }

# Long-running simulation server (SERVE_ADDR=127.0.0.1:0 for an
# ephemeral port; ^C shuts it down gracefully).
SERVE_ADDR ?= :8080

serve:
	$(GO) run ./cmd/thermservd -addr $(SERVE_ADDR)

# Load-harness self-check: thermload starts an in-process server on an
# ephemeral port, runs a short fixed-RPS open-loop load against it, and
# fails unless the JSON report parses under its schema gate, the
# latency quantiles are nonzero, the Zipf skew produced cache hits, and
# no request errored or was refused.
smoke-load:
	$(GO) run ./cmd/thermload -self

# Full load-trajectory point: a dated LOAD_<date>.json next to the
# BENCH_<date>.json series. Refuses to overwrite a committed point, so
# a same-day rerun needs an explicit LOAD_OUT.
LOAD_OUT ?= LOAD_$(BENCH_DATE).json

load-json:
	@if git ls-files --error-unmatch $(LOAD_OUT) >/dev/null 2>&1; then \
		echo "load-json: $(LOAD_OUT) is already a committed trajectory point;"; \
		echo "           pass LOAD_OUT=LOAD_$(BENCH_DATE)_2.json (or similar) to add a new one"; \
		exit 1; \
	fi
	$(GO) run ./cmd/thermload -self -out $(LOAD_OUT)
	@echo "wrote $(LOAD_OUT)"

# Wall-clock comparison of the serial vs parallel experiment runner.
bench:
	$(GO) test -bench 'BenchmarkSweep(Serial|Parallel)' -run '^$$' -benchtime 3x .

# One-iteration pass over every benchmark: catches bitrot, not perf.
bench-smoke:
	$(GO) test -bench . -run '^$$' -benchtime 1x ./...

# The benchmark module (bench/, its own Go module, so `go test ./...`
# from the root never reaches it) pins a golden run-document digest per
# batch configuration: 24 paper-sweep and 4 manycore runs, expm
# included. This target re-derives them against the current engine,
# along with the catalogue and verdict-rule tests, so a change to
# engine bits or to an API the benchmark uses fails here.
bench-golden:
	cd bench && $(GO) test -run 'TestGolden|TestBenchmarkJSONMatchesCatalogue|TestVerdict|TestCompareFailuresMayNotRise' ./...

# Integrator stepping cost on the high-performance package, Euler
# stepping on manycore-256 and the dense expm step on manycore-64
# (mobile package), a fresh expm integrator's
# first step on manycore-256, the cost of one cold
# expm propagator build (64-core and 3-core dies), and the manycore-256
# floorplan (validation, overlap check and adjacency).
bench-thermal:
	$(GO) test -bench 'Benchmark(Step|ExpmBuild)' -run '^$$' ./internal/thermal
	$(GO) test -bench BenchmarkFloorplanManycore256 -run '^$$' ./internal/floorplan

# End-to-end exercise of the exact matrix-exponential scheme: a paper
# scenario, a tiled manycore die on the dense path and manycore-256 on
# the sparse-only Euler fallback through the full CLI with -integrator
# expm; then the zero-allocation hot-loop assertions run without -race
# (race instrumentation allocates, so `make race` skips them) and the
# no-dense-state check on a network that never propagates densely.
smoke-expm:
	$(GO) run ./cmd/thermsim -scenario sdr-radio -integrator expm -warmup 1 -measure 2
	$(GO) run ./cmd/thermsim -scenario manycore-64 -integrator expm -warmup 1 -measure 1
	$(GO) run ./cmd/thermsim -scenario manycore-256 -integrator expm -warmup 0.2 -measure 0.3
	$(GO) test -run 'ZeroAllocs|NoDenseState' ./internal/thermal

# Coverage-guided fuzz passes: 20 s over the spec validator (no
# panics, stable accept/reject verdicts, byte-stable round trips), then
# 10 s over generated workloads whose warm-up is restored from a
# checkpoint (the run must be bit-identical to one that simulated it).
# Minimising each new interesting input is capped at 2 s: Go's default
# of 60 s can spend most of a short budget shrinking one input with no
# new execs, so the cap buys exploration; every check still runs.
fuzz-smoke:
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzSpecValidate$$' -fuzztime 20s -fuzzminimizetime 2s
	$(GO) test ./internal/experiment -run '^$$' -fuzz '^FuzzWarmupCheckpoint$$' -fuzztime 10s -fuzzminimizetime 2s

# A 32-bit build: the whole module vets under GOARCH=386, the
# checkpoint codec's own tests pass there, and so do the engine's
# checkpoint, restore, warm-up and RunTo tests (386 binaries run
# natively on an amd64 host), and the oracle comparisons of the expm
# build kernels and the floorplan sweep, which check their index math
# (matmul's row split among it) with a 32-bit int. The propagator
# goldens run there too: the portable Go kernels must produce the same
# seven digests as amd64's AVX kernels. internal/request and
# internal/cliutil run in full, and internal/scenario all but its run
# goldens, so spec hashes, content keys and the resolution path are
# pinned on 32-bit too. The engine's component packages (stream, bus,
# metrics, migrate, mpsoc, task, sched, dvfs, policy, trace) run in
# full. The checkpoint byte goldens and TestBuiltinSpecsRunBitForBit
# are skipped, and the full suite is not run under 386 yet, because
# engine float results still differ across arches (math.Exp among
# them; ROADMAP, "Make byte-identical on any machine true").
check-386:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/ckpt ./internal/request ./internal/cliutil
	GOARCH=386 $(GO) test ./internal/stream ./internal/bus ./internal/metrics ./internal/migrate ./internal/mpsoc \
		./internal/task ./internal/sched ./internal/dvfs ./internal/policy ./internal/trace
	GOARCH=386 $(GO) test -skip TestBuiltinSpecsRunBitForBit ./internal/scenario
	GOARCH=386 $(GO) test -run 'Checkpoint|Restore|Warmup|RunTo' -skip Golden ./internal/sim ./internal/experiment
	GOARCH=386 $(GO) test -run 'Oracle|PropagatorGolden' ./internal/thermal ./internal/floorplan

# No implicit fused multiply-add in FMA_PKGS. Go fuses x*y + z
# into one instruction on arm64, ppc64le, s390x and riscv64 (never on
# amd64), and a fused result rounds once where amd64 rounds twice. Every
# multiply-add in these packages rounds its product through an explicit
# float64(...) conversion, which forbids fusion; this cross-compiles the
# packages for each fusing arch with the compiler's assembly listing
# (-gcflags=-S, replayed from the build cache when nothing changed) and
# fails on any fused multiply-add instruction, printing its source line.
# The hand-written amd64 kernels (*_amd64.s in the same packages) are
# scanned for the fused AVX mnemonics (VFMADD*, VFMSUB*, VFNMADD*,
# VFNMSUB*, VFMADDSUB*, VFMSUBADD*) as file:line. It needs only the
# toolchain.
FMA_ARCHES = arm64 ppc64le s390x riscv64
FMA_PKGS = ./internal/thermal ./internal/task ./internal/scenario ./internal/metrics \
	./internal/stream ./internal/policy ./internal/dvfs

fma-check:
	@fail=0; for arch in $(FMA_ARCHES); do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$asm" | grep -v '^[[:space:]]'; exit 1; }; \
		sites=$$(echo "$$asm" | grep -E '^[[:space:]]+0x[0-9a-f]+ [0-9]+ \(.*\)[[:space:]]+FN?M(ADD|SUB)[DS]?[[:space:]]' | sed -E 's/^.*\((.*)\)[[:space:]]+([A-Z]+).*/\1 \2/'); \
		n=$$(printf '%s' "$$sites" | grep -c . || true); \
		echo "fma-check: $$arch: $$n fused multiply-add instructions"; \
		if [ "$$n" -ne 0 ]; then printf '%s\n' "$$sites" | sed 's/^/  /'; fail=1; fi; \
	done; \
	files=$$(for p in $(FMA_PKGS); do ls $$p/*_amd64.s 2>/dev/null; done); \
	sites=$$(if [ -n "$$files" ]; then grep -nHiE '^[[:space:]]*([[:alnum:]_]+:)?[[:space:]]*VFN?M(ADD|SUB)' $$files | sed -E 's/^([^:]+:[0-9]+):[[:space:]]*([[:alnum:]_]+:)?[[:space:]]*([[:alnum:]]+).*/\1 \3/'; fi); \
	n=$$(printf '%s' "$$sites" | grep -c . || true); \
	echo "fma-check: amd64 assembly ($$(echo $$files | wc -w) files): $$n fused multiply-add instructions"; \
	if [ "$$n" -ne 0 ]; then printf '%s\n' "$$sites" | sed 's/^/  /'; fail=1; fi; \
	exit $$fail

# Machine-readable ns/op for the Sweep, Manycore256, Manycore64Expm
# (the engine-bound many-core runs), Step, ExpmBuild,
# FloorplanManycore256, CanonicalizeInlineManycore256 (resolving and
# keying a non-builtin inline spec) and InstantiateManycore256 (one
# compile) benchmarks: five 1x samples each, recorded as
# their medians in a host-stamped BENCH_<date>.json. The points are a
# record, not a baseline; `make bench-ab` judges a change. Each bench
# run is a separate recipe line so a failure aborts the target instead
# of being masked by the pipeline's exit status.
bench-json:
	@if git ls-files --error-unmatch $(BENCH_OUT) >/dev/null 2>&1; then \
		echo "bench-json: $(BENCH_OUT) is already a committed trajectory point;"; \
		echo "            pass BENCH_OUT=BENCH_$(BENCH_DATE)_2.json (or similar) to add a new one"; \
		exit 1; \
	fi
	$(GO) test -bench 'BenchmarkSweep(Serial|SerialExpm|Parallel)' -run '^$$' -benchtime 1x -count 5 -benchmem . > .bench.tmp
	$(GO) test -bench 'BenchmarkManycore(256|64Expm)$$' -run '^$$' -benchtime 1x -count 5 -benchmem . >> .bench.tmp
	$(GO) test -bench 'Benchmark(Step|ExpmBuild)' -run '^$$' -benchtime 1x -count 5 -benchmem ./internal/thermal >> .bench.tmp
	$(GO) test -bench BenchmarkFloorplanManycore256 -run '^$$' -benchtime 1x -count 5 -benchmem ./internal/floorplan >> .bench.tmp
	$(GO) test -bench BenchmarkCanonicalizeInlineManycore256 -run '^$$' -benchtime 1x -count 5 -benchmem ./internal/request >> .bench.tmp
	$(GO) test -bench BenchmarkInstantiateManycore256 -run '^$$' -benchtime 1x -count 5 -benchmem ./internal/scenario >> .bench.tmp
	$(GO) run ./cmd/trajectory bench-json < .bench.tmp > $(BENCH_OUT)
	@rm -f .bench.tmp
	@echo "wrote $(BENCH_OUT)"

# Paired A/B run of the end-to-end benchmark, judged by its own
# -compare. BASE (default HEAD) is checked out into a git worktree
# under .bench_build/ab/base; for each seed in SEEDS both trees run
# `bench/run.sh -seed <s> $(ARGS)`, base first on odd seeds and head
# first on even ones, so host drift falls on both sides. Fails on any
# `worse` row and on any failed run (exit 3: incorrect outputs). The
# worktree is removed on exit, interrupts included. The base tree's Go
# build cache is a link to the working tree's, so the standard library
# is not rebuilt on every call.
#   make bench-ab BASE=HEAD~1 SEEDS='1 2 3 4' ARGS='-workload manycore'
BASE ?= HEAD
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
ARGS ?=

bench-ab:
	@set -eu; ab=$(CURDIR)/.bench_build/ab; \
	rm -rf "$$ab"; git worktree prune; \
	trap 'git worktree remove --force "$$ab/base" 2>/dev/null || true' EXIT; \
	trap 'exit 130' INT TERM; \
	git worktree add --detach "$$ab/base" $(BASE); \
	mkdir -p $(CURDIR)/.bench_build/gocache "$$ab/base/.bench_build"; \
	ln -s $(CURDIR)/.bench_build/gocache "$$ab/base/.bench_build/gocache"; \
	for s in $(SEEDS); do \
		order="head base"; [ $$((s % 2)) -eq 1 ] && order="base head"; \
		for side in $$order; do \
			dir=$(CURDIR); [ $$side = base ] && dir=$$ab/base; \
			echo "bench-ab: seed $$s, $$side"; \
			(cd "$$dir" && bash bench/run.sh -seed $$s $(ARGS) -out "$$ab/out-$$side"); \
		done; \
	done; \
	.bench_build/bin/thermbench -compare -spec BENCHMARK.json "$$ab/out-base" "$$ab/out-head"

# The tracked code-size number: non-test Go lines outside the bench/
# module (hidden directories, such as the benchmark's build cache, are
# skipped).
loc:
	@find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# Removes everything .gitignore names: bench intermediates, CI's
# bench/coverage outputs, and stray compiled test binaries
# (`go test -c` artifacts like thermbal.test).
clean:
	@rm -f .bench.tmp bench-ci.json coverage*.out
	@find . -name '*.test' -type f -delete
	$(GO) clean ./...
