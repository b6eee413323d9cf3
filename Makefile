# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make lint test` locally means a
# green pipeline.

GO ?= go

.PHONY: all build test lint lint-fix fuzz bench bench-baseline bench-diff clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the full static gate: formatting, go vet, then the project's own
# invariant analyzers (cmd/iminlint). staticcheck joins automatically when
# it is on PATH; its absence is not a failure (offline environments).
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/iminlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; fi

lint-fix:
	gofmt -w .

# fuzz runs every fuzz target for FUZZTIME each: the WAL decoders, the
# graph loaders, seed unification, the seed view, the dominator tree and
# the sample kernel. CI's crash-recovery job runs it at the default.
FUZZTIME ?= 20s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWALBatch$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzUnifySeeds$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDominatorTree$$' -fuzztime $(FUZZTIME) ./internal/dominator
	$(GO) test -run '^$$' -fuzz '^FuzzSampleKernel$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSeedView$$' -fuzztime $(FUZZTIME) ./internal/core

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-baseline regenerates the committed benchcore baseline. Pass
# FORCE=1 when the worker configuration changed (benchcore's provenance
# guard refuses a silent overwrite otherwise).
bench-baseline:
	$(GO) run ./cmd/experiments -exp benchcore -bench-out BENCH_core.json \
		$(if $(FORCE),-force,)

# bench-diff is the perf-trajectory regression gate: measure a fresh
# benchcore report and compare it against the committed baseline (exits
# nonzero on regression; appends BENCH_history.jsonl).
bench-diff:
	$(GO) run ./cmd/experiments -exp benchdiff

clean:
	$(GO) clean ./...
