#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark (ROADMAP Track 0).
#
#   scripts/abbench.sh <A> <B> [-workload w] [-seeds k]
#
# A and B are each a commit-ish (its tree exported with `git archive`) or
# a directory holding a git checkout (its tracked files plus the untracked
# ones it does not ignore, so `.` compares against uncommitted work). Each
# side runs from a fresh copy under .bench_build/ab/, removed on exit: a
# checkout's own bench/out and .bench_build history never reach a run.
# For seed n = 1..k both sides run `bench/run.sh -workload w -seed n`, A
# first on odd seeds and B first on even ones, so drift over the runs
# cancels instead of favouring a side. For every end-to-end metric of
# BENCHMARK.json it then prints each side's median between its first and
# third quartiles, the median of the k paired differences B-A (absolute
# and relative to A), their min and max, and in how many of the k pairs B
# was the better side — the numbers a change quotes ("ops_per_s +31 %, 10/10
# pairs", a median gain wider than A's interquartile range) and a
# reader can rerun. A table of every run's value of each metric follows.
#
# Each run takes the benchmark's own length (about a minute per workload
# with set-up), so ten pairs of one workload take twenty-odd minutes.
# Defaults: -workload query_hot -seeds 10.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() { sed -n '2,23p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 2 ] || usage
specA=$1 specB=$2
shift 2
workload=query_hot seeds=10
while [ $# -gt 0 ]; do
	case $1 in
	-workload) workload=$2; shift 2 ;;
	-seeds) seeds=$2; shift 2 ;;
	*) usage ;;
	esac
done

results=$(mktemp)
created=()
cleanup() {
	rm -f "$results"
	for d in ${created[@]+"${created[@]}"}; do
		rm -rf "$d"
	done
}
trap cleanup EXIT

# checkout <spec> <side> sets $dir to a fresh copy of the given side's
# source under .bench_build/ab/.
checkout() {
	dir="$root/.bench_build/ab/$2"
	rm -rf "$dir"
	mkdir -p "$dir"
	created+=("$dir")
	if [ -d "$1" ]; then
		git -C "$1" rev-parse --is-inside-work-tree >/dev/null 2>&1 || {
			echo "abbench: $1 is not a git checkout" >&2
			exit 2
		}
		(cd "$1" && git ls-files -z --cached --others --exclude-standard | tar --null --ignore-failed-read -T - -cf -) | tar -xf - -C "$dir"
		return
	fi
	local sha
	sha=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
		echo "abbench: $1 is neither a directory nor a commit" >&2
		exit 2
	}
	git -C "$root" archive "$sha" | tar -xf - -C "$dir"
}
checkout "$specA" A; dirA=$dir
checkout "$specB" B; dirB=$dir

# run_side <side> <dir> <seed>: one benchmark run; its closing JSON line
# goes to $results prefixed by side and seed.
run_side() {
	local line
	echo "abbench: seed $3 side $1 ($2)" >&2
	line=$(bash "$2/bench/run.sh" -workload "$workload" -seed "$3" | tail -n 1)
	echo "$1 $3 $line" >>"$results"
}
for n in $(seq 1 "$seeds"); do
	if [ $((n % 2)) -eq 1 ]; then
		run_side A "$dirA" "$n"; run_side B "$dirB" "$n"
	else
		run_side B "$dirB" "$n"; run_side A "$dirA" "$n"
	fi
done

echo "workload $workload, $seeds paired seeds; A = $specA, B = $specB"
awk -v seeds="$seeds" '
# quantile(v, n, p): the p-quantile of v[1..n], interpolating linearly
# between order statistics (p = 0.5 is the median).
function quantile(v, n, p,    i, j, t, s, h, f) {
	for (i = 1; i <= n; i++) s[i] = v[i]
	for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j+1] = s[j]; s[j+1] = t }
	h = 1 + (n - 1) * p; f = int(h)
	return f >= n ? s[n] : s[f] + (h - f) * (s[f+1] - s[f])
}
function median(v, n) { return quantile(v, n, 0.5) }
# spread(v, n): "q1 median q3" of v.
function spread(v, n) { return sprintf("%.4f %.4f %.4f", quantile(v, n, 0.25), median(v, n), quantile(v, n, 0.75)) }
# First file: BENCHMARK.json — the end-to-end metrics and their direction.
FNR == NR {
	if ($0 ~ /"end_to_end"/) on = 1
	if ($0 ~ /"per_layer"/) on = 0
	if (on && $0 ~ /"name"/) { gsub(/[",]/, ""); name = $2 }
	if (on && $0 ~ /"better"/) { gsub(/[",]/, ""); better[name] = $2; order[++m] = name }
	next
}
# Second file: "<side> <seed> <json>" per run.
{
	if ($0 !~ /"failed":0[,}]/ || $0 !~ /"correct":true/) bad[$1]++
	for (i = 1; i <= m; i++) {
		re = "\"" order[i] "\":\\{\"value\":[-+0-9.eE]+"
		if (match($0, re)) { v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v); val[$1, order[i], $2] = v + 0 }
	}
}
END {
	printf "%-14s %-32s %-32s %12s %8s %12s %12s  %s\n", "metric", "A q1 median q3", "B q1 median q3", "med(B-A)", "rel", "min(B-A)", "max(B-A)", "B better"
	for (i = 1; i <= m; i++) {
		name = order[i]; n = 0; wins = 0; ties = 0
		for (s = 1; s <= seeds; s++) {
			if (!((("A", name, s) in val) && (("B", name, s) in val))) continue
			n++; a[n] = val["A", name, s]; b[n] = val["B", name, s]; d[n] = b[n] - a[n]
			rel[n] = a[n] != 0 ? 100 * d[n] / a[n] : 0
			if (d[n] == 0) ties++
			else if ((better[name] == "higher") == (d[n] > 0)) wins++
		}
		if (n == 0) { printf "%-14s (no paired samples)\n", name; continue }
		lo = hi = d[1]
		for (s = 2; s <= n; s++) { if (d[s] < lo) lo = d[s]; if (d[s] > hi) hi = d[s] }
		printf "%-14s %-32s %-32s %+12.4f %+7.1f%% %+12.4f %+12.4f  %d/%d pairs%s (%s is better)\n",
			name, spread(a, n), spread(b, n), median(d, n), median(rel, n), lo, hi, wins, n,
			ties ? sprintf(", %d ties", ties) : "", better[name]
	}
	printf "\nevery run (seed, side, then the metrics above in order):\n"
	for (s = 1; s <= seeds; s++) for (k = 1; k <= 2; k++) {
		side = k == 1 ? "A" : "B"
		line = sprintf("%4d %s", s, side)
		for (i = 1; i <= m; i++) line = line sprintf(" %12s", ((side, order[i], s) in val) ? sprintf("%.4f", val[side, order[i], s]) : "-")
		print line
	}
	for (side in bad) printf "WARNING: %d run(s) of side %s reported failed operations or wrong answers\n", bad[side], side
}' "$root/BENCHMARK.json" "$results"
