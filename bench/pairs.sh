#!/usr/bin/env bash
# bench/pairs.sh BASE PAIRS [WORKLOAD] [SEED]
#
# Compares this checkout against the commit BASE with paired runs of the
# benchmark, all in one session on one machine:
#
#   - BASE is checked out into a temporary git worktree (removed on exit);
#   - PAIRS alternating pairs of
#       bash benchmark/run.sh --workload WORKLOAD --seed SEED --seconds 12 --trace 0
#     run, odd pairs BASE first and even pairs this checkout first;
#   - one A/A pair of BASE measures how far two runs of one commit drift
#     apart on this machine right now;
#   - `benchmark/run.sh compare` judges every pair.
#
# WORKLOAD defaults to all, SEED to 1. The documents, run logs and compare
# outputs stay in the directory printed first. The closing summary
# (bench/summary.awk) has one line per (workload, metric) row: the verdict
# tally over the change pairs, the median "B worse", the A/A pair's
# "B worse", the row's bound and the gate verdict. An end-to-end row FAILs
# only when it is worse in every change pair and its median "B worse"
# exceeds its bound plus the absolute A/A "B worse". A simulator digest
# (or traced sim_ metric) row FAILs when it reads DIFFERS in any pair, the
# A/A pair included. Every compare output and the summary open with two
# lines naming their sides: "A = base <sha>" and "B = checkout <HEAD sha>",
# plus "+ uncommitted changes" when git status shows any (benchmark/run.sh
# stamps both sides of an uncommitted change with HEAD's hash), or
# "B = base <sha> (A/A)". Nothing is compared against a stored number. Exit
# status: 0 when no row fails, 1 when one does, 2 on a usage error or a
# failed run.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 || ! $2 =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: bench/pairs.sh BASE PAIRS [WORKLOAD] [SEED]" >&2
	exit 2
fi
pairs=$2
workload=${3:-all}
seed=${4:-1}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="$(git -C "$root" rev-parse --verify --quiet "$1^{commit}")" || {
	echo "pairs: $1 is not a commit" >&2
	exit 2
}
side_a="A = base $base"
side_b="B = checkout $(git -C "$root" rev-parse HEAD)"
if [[ -n "$(git -C "$root" status --porcelain)" ]]; then
	side_b+=" + uncommitted changes"
fi
mkdir -p "$root/.bench_build"
out="$(mktemp -d "$root/.bench_build/pairs.XXXXXX")"
tree="$out/base"
echo "pairs: base $base, $pairs pair(s) + A/A, workload $workload, seed $seed"
echo "pairs: results in $out"

git -C "$root" worktree add --quiet --detach "$tree" "$base"
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

# bench DIR DOC: one benchmark run of the checkout at DIR.
bench() {
	if ! bash "$1/benchmark/run.sh" --workload "$workload" --seed "$seed" \
		--seconds 12 --trace 0 --out "$2" >"${2%.json}.log" 2>&1; then
		echo "pairs: run failed, see ${2%.json}.log" >&2
		exit 2
	fi
}

# compare A B NAME SIDE_B: compare's exit 1 (a row worse) is data, not an
# error. The output opens with the two sides' labels.
compare() {
	local rc=0
	printf '%s\n%s\n' "$side_a" "$4" >"$out/$3.compare"
	bash "$root/benchmark/run.sh" compare "$1" "$2" >>"$out/$3.compare" || rc=$?
	if ((rc > 1)); then
		echo "pairs: compare $3 failed" >&2
		exit 2
	fi
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		bench "$tree" "$out/pair$i-base.json"
		bench "$root" "$out/pair$i-change.json"
	else
		bench "$root" "$out/pair$i-change.json"
		bench "$tree" "$out/pair$i-base.json"
	fi
	compare "$out/pair$i-base.json" "$out/pair$i-change.json" "pair$i" "$side_b"
done
bench "$tree" "$out/aa-1.json"
bench "$tree" "$out/aa-2.json"
compare "$out/aa-1.json" "$out/aa-2.json" aa "B = base $base (A/A)"

{
	printf '%s\n%s\n' "$side_a" "$side_b"
	awk -v pairs="$pairs" -f "$root/bench/summary.awk" $(for ((i = 1; i <= pairs; i++)); do echo "$out/pair$i.compare"; done) "$out/aa.compare"
} | tee "$out/summary.txt"
