GO ?= go

.PHONY: all build test vet lint repobench-check bench bench-snapshot bench-gated bench-history matrix matrix-smoke

all: vet build test

build:
	$(GO) build ./...

# -race gates the parallel search worker pool (internal/search), the repo's
# only production goroutines.
test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting + vet, exactly what the CI lint job runs: gofmt -l output is a
# failure with the offending files named.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# repobench/ is its own module (replace gcs => ../), so the root
# `go vet ./...` and `go test ./...` never compile it. This runs both inside
# it, so an engine or clock API change that breaks the end-to-end benchmark
# fails the checks. The CI repobench job runs this target.
repobench-check:
	cd repobench && $(GO) vet ./... && $(GO) test ./...

# One pass over every benchmark: regenerates each experiment's headline
# metric plus the streaming-vs-recorded engine comparison.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Machine-readable experiment snapshots for trend tracking: the standard
# suite (which already embeds the E14 smoke table), the E13 -long scale
# sweep (diameter-64 cells, prefix-cache steps-per-candidate savings), and
# the E14 -long adaptive sweep (two-node d=8 + line cells: adaptive vs
# scripted search vs certified Shift bound). CI uploads these as per-commit
# artifacts; BENCH_E13_long.json and BENCH_E14_long.json are also committed
# so headline metrics diff in review.
bench-snapshot:
	$(GO) run ./cmd/gcsbench -json > BENCH_suite.json
	$(GO) run ./cmd/gcsbench -long -only E13 -json > BENCH_E13_long.json
	$(GO) run ./cmd/gcsbench -long -only E14 -json > BENCH_E14_long.json

# The gated benchmark set, the one copy of its command: the CI perf-gate job
# runs `make -s bench-gated` on the PR head and on the merge base, and
# bench-history below runs it too. Pipe each run into a file and compare
# with `go run ./cmd/perfgate -base base.txt -head head.txt` (and/or
# benchstat); -s keeps make's command echo out of the output.
bench-gated:
	$(GO) test -bench 'EngineStream|EngineFork|EngineForkGradient|AdaptiveRun|SearchPrefixCached|SearchEndToEnd|SearchRateWindows|CampaignAdvance' \
		-benchmem -count 6 -run '^$$' ./...

# Scenario matrix (internal/scenario): generated topology families × fault
# models × drift profiles, each cell searched and adaptively scheduled, then
# gated against its certified D-dependent bound. `matrix` renders the full
# registry as a table; `matrix-smoke` regenerates the committed golden
# BENCH_matrix.json exactly as the CI matrix-smoke job does — after running
# it, `git diff BENCH_matrix.json` must be empty.
matrix:
	$(GO) run ./cmd/gcsbench -matrix

matrix-smoke:
	$(GO) run ./cmd/gcsbench -matrix -smoke -json > BENCH_matrix.json

# Append this commit's gated-benchmark medians to the dev/bench/data.js
# history (github-action-benchmark format). CI runs this on every push to
# main; run it locally only to inspect the mechanism — local timings do not
# belong in the shared curve.
bench-history:
	$(MAKE) -s bench-gated > bench-head.txt
	$(GO) run ./cmd/perfgate -append -head bench-head.txt \
		-history dev/bench/data.js \
		-commit "$$(git rev-parse HEAD)" \
		-message "$$(git log -1 --format=%s)"
