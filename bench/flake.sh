#!/usr/bin/env bash
# bench/flake.sh N PKG RUN
#
# Counts how often the tests of package PKG (a ./path) that match the
# -run regexp RUN fail when each run is a fresh process and the CPUs are
# busy:
#
#   - the package's test binary is built once (go test -c);
#   - a sibling loop of `go test -count=1 ./internal/chaos` loads the
#     CPUs for the whole measurement (our own processes only: no machine
#     setting is touched);
#   - the binary runs N times, each in a new process with -test.run RUN.
#
# It prints, per top-level test, failures out of runs, then the output of
# the first failing run. Build products and logs go to a temporary
# directory under .bench_build/ (removed on exit). Exit status: 0 when no
# run failed, 1 when one did, 2 on a usage or build error.
set -euo pipefail

if [[ $# -ne 3 || ! $1 =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: bench/flake.sh N PKG RUN" >&2
	exit 2
fi
runs=$1
pkg=$2
pattern=$3

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
out="$(mktemp -d "$root/.bench_build/flake.XXXXXX")"
load=""
cleanup() {
	if [[ -n $load ]]; then
		kill -TERM -- "-$load" 2>/dev/null || true
		wait "$load" 2>/dev/null || true
	fi
	rm -rf "$out"
}
trap cleanup EXIT

bin="$out/pkg.test"
if ! go test -c -o "$bin" "$pkg"; then
	echo "flake: building $pkg failed" >&2
	exit 2
fi
# The sibling load runs as its own job (set -m gives it a process group
# of its own), so one kill of that group also stops the test binaries
# the go command started.
set -m
bash -c "while :; do go test -count=1 ./internal/chaos >/dev/null 2>&1; done" &
load=$!
set +m

echo "flake: $runs fresh runs of $pkg -run '$pattern' beside a looping ./internal/chaos"
failed=0
for ((i = 1; i <= runs; i++)); do
	log="$out/run.log"
	if (cd "$pkg" && "$bin" -test.run "$pattern" -test.count=1 -test.v) >"$log" 2>&1; then
		:
	else
		failed=$((failed + 1))
		[[ -f $out/first.log ]] || { cp "$log" "$out/first.log"; echo "$i" >"$out/first.run"; }
	fi
	# Top-level results only: subtests are indented.
	grep -E '^--- (PASS|FAIL|SKIP): ' "$log" | awk '{print $2, $3}' >>"$out/results" || true
done

awk '{ runs[$2]++; if ($1 == "FAIL:") fails[$2]++ }
	END { for (t in runs) printf "%-32s %d failures in %d runs\n", t, fails[t], runs[t] }' \
	"$out/results" | sort
echo "flake: $failed of $runs processes failed"
if ((failed > 0)); then
	echo "flake: first failure (run $(cat "$out/first.run")):"
	cat "$out/first.log"
	exit 1
fi
