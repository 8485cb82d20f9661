#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark (ROADMAP Track 0).
#
#   scripts/abbench.sh <A> <B> [-workload w] [-seeds k]
#
# A and B are each a commit-ish (built in a detached `git worktree` under
# .bench_build/ab/, removed on exit) or a directory holding a checkout
# (used as it is — `.` compares against uncommitted work). For seed
# n = 1..k both sides run `bench/run.sh -workload w -seed n`, A first on
# odd seeds and B first on even ones, so drift over the session cancels
# instead of favouring a side. For every end-to-end metric of
# BENCHMARK.json it then prints each side's median, the median of the k
# paired differences B-A (absolute and relative to A), their min and max,
# and in how many of the k pairs B was the better side — the numbers a PR
# quotes ("ops_per_s +31 %, 10/10 pairs") and a reviewer reruns.
# A table of every run's value of each metric follows.
#
# Each run takes the benchmark's own length (about a minute per workload
# with set-up), so ten pairs of one workload take twenty-odd minutes.
# Defaults: -workload query_hot -seeds 10.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() { sed -n '2,20p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2; }
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
		git -C "$root" worktree remove --force "$d" >/dev/null 2>&1 || true
	done
}
trap cleanup EXIT

# checkout sets $dir to the directory holding the given side's source.
checkout() {
	if [ -d "$1" ]; then
		dir=$(cd "$1" && pwd)
		return
	fi
	local sha
	sha=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
		echo "abbench: $1 is neither a directory nor a commit" >&2
		exit 2
	}
	dir="$root/.bench_build/ab/$sha"
	if [ ! -d "$dir" ]; then
		mkdir -p "$root/.bench_build/ab"
		git -C "$root" worktree add --detach "$dir" "$sha" >&2
		created+=("$dir")
	fi
}
checkout "$specA"; dirA=$dir
checkout "$specB"; dirB=$dir

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
function median(v, n,    i, j, t, s) {
	for (i = 1; i <= n; i++) s[i] = v[i]
	for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j+1] = s[j]; s[j+1] = t }
	return n % 2 ? s[(n+1)/2] : (s[n/2] + s[n/2+1]) / 2
}
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
	printf "%-14s %12s %12s %12s %8s %12s %12s  %s\n", "metric", "A median", "B median", "med(B-A)", "rel", "min(B-A)", "max(B-A)", "B better"
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
		printf "%-14s %12.4f %12.4f %+12.4f %+7.1f%% %+12.4f %+12.4f  %d/%d pairs%s (%s is better)\n",
			name, median(a, n), median(b, n), median(d, n), median(rel, n), lo, hi, wins, n,
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
