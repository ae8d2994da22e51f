# Developer entry points for the simulator's test, benchmark and
# profiling workflow. Everything here is reproducible from a clean
# checkout with only the Go toolchain; CI runs the same commands.

GO ?= go

# BENCH_RE selects the gated benchmarks: the latency-bound pool pair
# (SweepLatency*), the CPU-bound engine-throughput pair
# (EngineTaskNs / EngineCellGrid) and the baseline-scheduler cells
# (EngineBaselineCell: bf and dep on paper-size matmul-hyb). Keep it in
# sync with the bench step in .github/workflows/ci.yml.
BENCH_RE = SweepLatency|EngineTaskNs|EngineCellGrid|EngineBaselineCell

# PROFILE_DIR collects pprof artifacts; it is gitignored scratch space.
PROFILE_DIR ?= profiles

.PHONY: test bench profile bench-baseline bench-gate lint linedelta

test:
	$(GO) build ./...
	$(GO) test ./...

# lint runs the static gates exactly as CI's lint job does: gofmt, the
# stock vet, and ompss-vet — the determinism analyzers in internal/lint
# that enforce the byte-identity invariant (wall-clock reads in
# virtual-time packages, map-order emission, unseeded randomness,
# dropped journal errors, typed-nil extension points). staticcheck is
# included when installed; CI always runs it at a pinned version, so an
# offline checkout skipping it still cannot merge a violation.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build -o bin/ompss-vet ./cmd/ompss-vet
	$(GO) vet -vettool=$(CURDIR)/bin/ompss-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it pinned)"; \
	fi

# bench runs the gated benchmarks exactly as CI does: -benchtime 1x
# (each is internally iteration-heavy), min of 3 runs taken by
# ompss-benchdiff; -benchmem prints the allocs/op the engine pins gate.
bench:
	$(GO) test -bench '$(BENCH_RE)' -benchtime 1x -count 3 -benchmem -run '^$$' ./internal/exp/

# profile captures CPU and allocation profiles of the pinned heavy cell
# (BenchmarkEngineTaskNs: pbpi-hyb/quick/versioning/2smp+2gpu) — the
# reproducible starting point of every engine optimization. See the
# "Profiling the engine" section of internal/exp/README.md for how to
# read the output.
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench EngineTaskNs -benchtime 200x \
		-cpuprofile $(PROFILE_DIR)/engine.cpu.pprof \
		-memprofile $(PROFILE_DIR)/engine.mem.pprof \
		-o $(PROFILE_DIR)/exp.test ./internal/exp/
	@echo
	@echo "profiles written; inspect with:"
	@echo "  $(GO) tool pprof -top $(PROFILE_DIR)/exp.test $(PROFILE_DIR)/engine.cpu.pprof"
	@echo "  $(GO) tool pprof -top -sample_index=alloc_objects $(PROFILE_DIR)/exp.test $(PROFILE_DIR)/engine.mem.pprof"

# bench-gate compares a fresh run against the committed baseline; fails
# beyond +25% ns/op on any gated benchmark, or beyond +1% allocs/op on
# the engine benchmarks the baseline pins (same command as CI).
bench-gate:
	$(GO) test -bench '$(BENCH_RE)' -benchtime 1x -count 3 -benchmem -run '^$$' ./internal/exp/ \
		| $(GO) run ./cmd/ompss-benchdiff -baseline BENCH_baseline.json

# bench-baseline regenerates BENCH_baseline.json in place. Only commit a
# refreshed baseline together with the change that legitimately moved
# the numbers, and re-apply the headroom policy documented in the file's
# note (engine ns figures are machine-dependent; pad the observed min
# before committing). Keep allocs_per_op unpadded for the engine
# benchmarks only: delete the latency pair's entries, whose allocations
# follow goroutine scheduling.
bench-baseline:
	$(GO) test -bench '$(BENCH_RE)' -benchtime 1x -count 3 -benchmem -run '^$$' ./internal/exp/ \
		| $(GO) run ./cmd/ompss-benchdiff -write BENCH_baseline.json

# linedelta prints the net Go line delta of the working tree against
# BASE (default main), split into non-test and _test.go files; the lint
# analyzers' testdata is excluded. Every change reports this figure.
# New files count once git tracks them (git add, or git add -N).
BASE ?= main
linedelta:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)internal/lint/testdata' | awk ' \
		{ k = ($$3 ~ /_test\.go$$/) ? "test" : "non-test"; add[k] += $$1; del[k] += $$2 } \
		END { \
			printf "%-9s %8s %8s %8s\n", "go lines", "added", "removed", "net"; \
			n = split("non-test test", ks, " "); \
			for (i = 1; i <= n; i++) { k = ks[i]; ta += add[k]; td += del[k]; \
				printf "%-9s %8d %8d %+8d\n", k, add[k], del[k], add[k] - del[k] } \
			printf "%-9s %8d %8d %+8d\n", "total", ta, td, ta - td }'
