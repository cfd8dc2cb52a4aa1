# Convenience targets for the msweb reproduction.

GO ?= go

.PHONY: all build fmt vet lint test test-short race check tournament autoscale experiments results clean help

all: build vet test

help:
	@echo "msweb targets:"
	@echo "  build       compile every package"
	@echo "  fmt         fail when a tracked .go file is not gofmt-clean"
	@echo "  vet         go vet ./..."
	@echo "  lint        staticcheck ./... (skipped when staticcheck is not installed)"
	@echo "  test        full test suite (includes live loopback replays)"
	@echo "  test-short  test suite minus the wall-clock replays"
	@echo "  check       gofmt + go vet + go test -race ./... (the pre-merge gate;"
	@echo "              exercises the parallel experiment grid under the race detector)"
	@echo "  race        race detector on the live-cluster packages only"
	@echo "  tournament  head-to-head policy comparison on the simulator grid"
	@echo "              (CSV in results/csv/policy-tournament.csv)"
	@echo "  autoscale   online Theorem-1 autoscaler vs a fixed fleet under"
	@echo "              diurnal and flash-crowd load (byte-deterministic"
	@echo "              sharded simulator; CSV in results/csv)"
	@echo "  experiments print every table and figure, the live table3 replay included"
	@echo "  results     rewrite results/<name>.txt, results/csv and the tier-1"
	@echo "              digests (cmd/msbench/testdata/digests.txt) for every"
	@echo "              deterministic experiment (all but table3; CI diffs them),"
	@echo "              and EXPERIMENTS.md's scorecard block; fails when a"
	@echo "              scorecard claim fails"
	@echo "  clean       go clean ./..."
	@echo "Performance claims: bench/pairs.sh BASE PAIRS [WORKLOAD] [SEED]"

build:
	$(GO) build ./...

fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when present, skip (successfully)
# when the box doesn't have it so `make check` works on a bare toolchain.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Skips the live-cluster (wall-clock) validation tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/httpcluster/ ./internal/chaos/ ./internal/replay/ ./cmd/msload/

# The pre-merge gate: gofmt + vet + lint plus the whole suite under the race
# detector. The experiment grids run parallel by default, so this
# exercises the worker pool and the shared trace cache under -race.
check: fmt vet lint
	$(GO) test -race ./...

# Head-to-head policy comparison: every registered competitor replays
# identical traces through the simulator grid.
tournament:
	@mkdir -p results/csv
	$(GO) run ./cmd/msbench -experiment tournament -csv results/csv

# Autoscaling study: the online Theorem-1 autoscaler against a fixed
# peak-provisioned fleet on diurnal and flash-crowd workloads, run on
# the byte-deterministic sharded simulator (epoch-versioned shard maps,
# live promote/demote, slave power-off).
autoscale:
	@mkdir -p results/csv
	$(GO) run ./cmd/msbench -experiment autoscale -csv results/csv

# Print every table and figure (table3 replays on a live loopback
# cluster in real time, about 26 minutes).
experiments:
	$(GO) run ./cmd/msbench -experiment all

# Regenerate results/<name>.txt (the table msbench prints) and
# results/csv for every deterministic experiment, the per-experiment
# -quick CSV digests in cmd/msbench/testdata/digests.txt that tier-1
# checks, and EXPERIMENTS.md's copy of results/scorecard.txt. The
# experiments run in one process (TestResults, under -update-golden),
# so the scorecard reads the rows of the inputs that ran before it
# instead of running them again. CI runs this and fails when the
# checked-in files differ, or when a scorecard claim fails (the
# scorecard is written first). The CSVs are deleted first, so a removed
# experiment's CSV shows as a deletion (no live table3 CSV is kept).
results:
	@mkdir -p results/csv
	rm -f results/csv/*.csv
	$(GO) test -count=1 ./cmd/msbench -run '^TestResults$$' -update-golden
	$(GO) test -count=1 ./cmd/msbench -run 'TestCSVEmission|TestScorecardBlock' -update-golden -update

clean:
	$(GO) clean ./...
