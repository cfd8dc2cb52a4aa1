# Convenience targets for the msweb reproduction.

GO ?= go

.PHONY: all build vet lint test test-short race check tournament autoscale experiments results clean help

all: build vet test

help:
	@echo "msweb targets:"
	@echo "  build       compile every package"
	@echo "  vet         go vet ./..."
	@echo "  lint        staticcheck ./... (skipped when staticcheck is not installed)"
	@echo "  test        full test suite (includes live loopback replays)"
	@echo "  test-short  test suite minus the wall-clock replays"
	@echo "  check       go vet + go test -race ./... (the pre-merge gate;"
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
	@echo "              deterministic experiment (all but table3; CI diffs them)"
	@echo "  clean       go clean ./..."
	@echo "Performance claims: bench/pairs.sh BASE PAIRS [WORKLOAD] [SEED]"

build:
	$(GO) build ./...

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

# The pre-merge gate: vet + lint plus the whole suite under the race
# detector. The experiment grids run parallel by default, so this
# exercises the worker pool, the shared trace cache, and the engine pool
# under -race.
check: vet lint
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

# The deterministic experiments: every one but the live table3, whose
# results/table3.txt is a recorded replay. cmd/msbench's
# TestMakefileResultsList keeps this list in step with the experiments.
RESULTS = table1 table2 fig3 fig4a fig4b fig5 cachesweep failover flashcrowd autoscale hetero discipline openclosed wsense staleness tournament sharded

# Regenerate results/<name>.txt (the table msbench prints) and
# results/csv for every deterministic experiment, and the per-experiment
# -quick CSV digests in cmd/msbench/testdata/digests.txt that tier-1
# checks. CI runs this and fails when the checked-in files differ.
results:
	@mkdir -p results/csv .bench_build
	$(GO) build -o .bench_build/msbench ./cmd/msbench
	@for e in $(RESULTS); do \
		.bench_build/msbench -experiment $$e -csv results/csv > results/$$e.txt || exit 1; \
	done
	$(GO) test -count=1 ./cmd/msbench -run TestCSVEmission -update-golden

clean:
	$(GO) clean ./...
