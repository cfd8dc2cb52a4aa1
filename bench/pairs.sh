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
# outputs stay in the directory printed first. The closing summary has one
# line per (workload, metric) row: the verdict tally over the change
# pairs, the median "B worse", the A/A pair's "B worse", the row's bound
# and the gate verdict. A row FAILs only when it is worse in every change
# pair and its median "B worse" exceeds its bound plus the absolute A/A
# "B worse"; nothing is compared against a stored number. Exit status: 0
# when no row fails, 1 when one does, 2 on a usage error or a failed run.
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

# compare A B NAME: compare's exit 1 (a row worse) is data, not an error.
compare() {
	local rc=0
	bash "$root/benchmark/run.sh" compare "$1" "$2" >"$out/$3.compare" || rc=$?
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
	compare "$out/pair$i-base.json" "$out/pair$i-change.json" "pair$i"
done
bench "$tree" "$out/aa-1.json"
bench "$tree" "$out/aa-2.json"
compare "$out/aa-1.json" "$out/aa-2.json" aa

# Rows of a compare output: 8 fields for an end-to-end metric (workload,
# metric, A median, B median, B worse %, A iqr %, bound %, verdict) and 5
# for an exact simulator row (workload, metric, A, B, identical|DIFFERS).
awk -v pairs="$pairs" '
function pct(s) { sub(/%$/, "", s); return s + 0 }
function median(k,    n, i, j, v, a) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((k, i) in worse) a[++n] = worse[k, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { v = a[j]; a[j] = a[j-1]; a[j-1] = v }
	return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
FNR == 1 { aa = FILENAME ~ /\/aa\.compare$/; pair++ }
(NF == 8 || NF == 5) && $1 != "workload" {
	k = $1 " " $2
	if (!(k in seen)) { seen[k] = 1; order[++rows] = k; fields[k] = NF }
	if (aa) { aaval[k] = NF == 8 ? pct($5) : $5; next }
	verdict = $NF
	tally[k, verdict]++
	if (NF == 8) { worse[k, pair] = pct($5); bound[k] = pct($7) }
}
END {
	printf "%-22s %-26s %-30s %9s %9s %7s  %s\n", "workload", "metric", "verdicts over change pairs", "median", "A/A", "bound", "gate"
	split("gain unchanged unresolved worse identical DIFFERS", kinds, " ")
	failed = 0
	for (r = 1; r <= rows; r++) {
		k = order[r]; split(k, wm, " ")
		t = ""
		for (i = 1; i in kinds; i++) if ((k, kinds[i]) in tally) t = t (t == "" ? "" : " ") kinds[i] "=" tally[k, kinds[i]]
		if (fields[k] == 5) {
			printf "%-22s %-26s %-30s %9s %9s %7s  %s\n", wm[1], wm[2], t, "-", aaval[k], "-", "-"
			continue
		}
		m = median(k); a = aaval[k] < 0 ? -aaval[k] : aaval[k]
		gate = (tally[k, "worse"] == pairs && m > bound[k] + a) ? "FAIL" : "pass"
		if (gate == "FAIL") failed++
		printf "%-22s %-26s %-30s %+8.2f%% %+8.2f%% %6.1f%%  %s\n", wm[1], wm[2], t, m, aaval[k], bound[k], gate
	}
	printf "%d row(s) fail the gate\n", failed
	exit (failed > 0)
}' $(for ((i = 1; i <= pairs; i++)); do echo "$out/pair$i.compare"; done) "$out/aa.compare" |
	tee "$out/summary.txt"
