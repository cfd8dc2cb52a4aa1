# bench/summary.awk: the closing summary of bench/pairs.sh.
#
#   awk -v pairs=N -f bench/summary.awk pair1.compare ... pairN.compare [aa.compare]
#
# Reads the `benchmark/run.sh compare` output of each change pair and of
# the A/A pair (the file whose name ends in /aa.compare or is
# aa.compare), prints one line per (workload, metric) row and exits 1
# when a row fails the gate, 0 otherwise.
#
# Rows of a compare output: 8 fields for an end-to-end metric (workload,
# metric, A median, B median, B worse %, A iqr %, bound %, verdict) and 5
# for an exact simulator row, a digest or a traced sim_ metric (workload,
# metric, A, B, identical|DIFFERS).
#
# Gate. An end-to-end row FAILs only when it is worse in every change
# pair and its median "B worse" exceeds its bound plus the absolute A/A
# "B worse". An exact row FAILs when it DIFFERS in any pair, the A/A
# pair included: the simulator is deterministic, so two runs of one
# commit differing is a failure too.
function pct(s) { sub(/%$/, "", s); return s + 0 }
function median(k,    n, i, j, v, a) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((k, i) in worse) a[++n] = worse[k, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { v = a[j]; a[j] = a[j-1]; a[j-1] = v }
	return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
FNR == 1 { aa = FILENAME ~ /(^|\/)aa\.compare$/; if (!aa) pair++ }
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
			gate = ((k, "DIFFERS") in tally || aaval[k] == "DIFFERS") ? "FAIL" : "pass"
			if (gate == "FAIL") failed++
			printf "%-22s %-26s %-30s %9s %9s %7s  %s\n", wm[1], wm[2], t, "-", (k in aaval) ? aaval[k] : "-", "-", gate
			continue
		}
		m = median(k); a = aaval[k] < 0 ? -aaval[k] : aaval[k]
		gate = (tally[k, "worse"] == pairs && m > bound[k] + a) ? "FAIL" : "pass"
		if (gate == "FAIL") failed++
		printf "%-22s %-26s %-30s %+8.2f%% %+8.2f%% %6.1f%%  %s\n", wm[1], wm[2], t, m, aaval[k], bound[k], gate
	}
	printf "%d row(s) fail the gate\n", failed
	exit (failed > 0)
}
