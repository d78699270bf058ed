#!/usr/bin/env bash
# Compares the end-to-end benchmark of a base revision against the working
# tree by alternating runs of the two:
#
#   bash scripts/e2e_ab.sh <base-rev> <workload> [seed] [pairs] [trace]
#   make e2e-ab BASE=<rev> WORKLOAD=<w> SEED=<s> PAIRS=<n>
#
# An empty or missing seed, pairs or trace takes the default that usage
# prints. Every run lasts BENCHMARK.json's run_seconds, so both sides run
# as long as the benchmark does.
#
# The base side is an export of <base-rev> (git archive) in a temporary
# directory; the change side is the working tree. On exit the export is
# removed, and every run's output stays in that directory, whose path the
# script prints: <side>-<pair>.txt, the run's whole output (with each
# pass's steal share and calibration scale), and <side>-<pair>.json, its
# result line. Each side runs through its own bench/run.sh, so each
# builds from its own sources into its own .bench_build/. Pair i runs
# base then change when i is odd and change then base when it is even,
# so neither side always runs first on a drifting machine.
#
# It prints every run's correct flag and failed-op count and every metric
# of the run, then, for each metric, each side's median and quartiles and
# the number of pairs in which the change read better (BENCHMARK.json says
# which direction is better). It exits 1 if any run was not correct, and 2
# on a usage error. trace=1 compares the per-layer metrics of traced runs
# instead of the end-to-end ones. Needs git, bash and jq. TMPDIR sets
# where the base export and the run outputs go.
set -euo pipefail

usage() {
	echo "usage: make e2e-ab BASE=<rev> WORKLOAD=<w> [SEED=2] [PAIRS=10] [TRACE=0]" >&2
	echo "   or: $0 <base-rev> <workload> [seed] [pairs] [trace]" >&2
	exit 2
}
[ $# -ge 2 ] && [ -n "$1" ] && [ -n "$2" ] || usage
base=$1 workload=$2 seed=${3:-2} pairs=${4:-10} trace=${5:-0}
for v in "$seed" "$pairs" "$trace"; do
	[[ $v =~ ^[0-9]+$ ]] || usage
done
[ "$pairs" -ge 1 ] || usage
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
seconds=$(jq -r .run_seconds "$root/BENCHMARK.json")
[[ $seconds =~ ^[0-9]+$ ]] || { echo "$0: no run_seconds in BENCHMARK.json" >&2; exit 2; }
rev=$(git -C "$root" rev-parse --verify --quiet "$base^{commit}") || { echo "$0: no commit $base" >&2; exit 2; }
work=$(mktemp -d "${TMPDIR:-/tmp}/e2e-ab.XXXXXX")
trap 'rm -rf "$work/base"; echo "run outputs kept in $work" >&2' EXIT
mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
echo "base   $rev (exported to $work/base)"
echo "change working tree $root ($(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo ', with uncommitted changes'))"
echo "workload $workload, seed $seed, $pairs pairs of ${seconds}-s runs, trace $trace"

# run <side> <pair>: one benchmark run of a side; its output goes to
# $work/<side>-<pair>.txt and its last line must be the result JSON.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$work/base
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") \
		>"$work/$1-$2.txt" 2>&1 || true
	local last
	last=$(tail -n 1 "$work/$1-$2.txt")
	if ! jq -e 'has("correct")' >/dev/null 2>&1 <<<"$last"; then
		echo "pair $2 $1: no result line; output follows" >&2
		tail -n 20 "$work/$1-$2.txt" >&2
		last='{"correct":false,"failed":-1,"metrics":{}}'
	fi
	echo "$last" >"$work/$1-$2.json"
	jq -r --arg p "$2" --arg s "$1" \
		'"pair \($p) \($s): correct \(.correct), \(.failed) failed; " + ([.metrics | to_entries[] | "\(.key) \(.value.value)"] | join(", "))' \
		"$work/$1-$2.json"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		run base "$i"
		run change "$i"
	else
		run change "$i"
		run base "$i"
	fi
done

# The summary: one row per metric the runs reported.
jq -r '(.end_to_end + .per_layer)[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" >"$work/better.txt"
for ((i = 1; i <= pairs; i++)); do
	for side in base change; do
		jq -r --arg p "$i" --arg s "$side" '.metrics | to_entries[] | "\($s) \($p) \(.key) \(.value.value)"' \
			"$work/$side-$i.json"
	done
done >"$work/values.txt"
echo
printf '%-34s %-30s %-30s %s\n' metric "base median [q1, q3]" "change median [q1, q3]" "change better"
awk -v pairs="$pairs" '
	# q returns the p-quantile of the sorted values a[1..n], interpolating
	# linearly between order statistics.
	function q(a, n, p,    h, lo) {
		h = (n - 1) * p + 1
		lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function sorted(src, n, dst,    i, j, t) {
		for (i = 1; i <= n; i++) dst[i] = src[i]
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && dst[j] < dst[j - 1]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
	}
	FILENAME == ARGV[1] { better[$1] = $2; declared[++d] = $1; next }
	{ v[$1, $3, $2] = $4; if (!($3 in seen)) { seen[$3] = 1; names[++m] = $3 } }
	END {
		# Rows follow BENCHMARK.json, then any metric it does not declare.
		for (k = 1; k <= d; k++) if (declared[k] in seen) order[++o] = declared[k]
		for (k = 1; k <= m; k++) if (!(names[k] in better)) order[++o] = names[k]
		for (k = 1; k <= o; k++) {
			name = order[k]
			known = name in better
			higher = known && better[name] == "higher"
			nb = nc = wins = ties = 0
			delete b; delete c
			for (i = 1; i <= pairs; i++) {
				if (!(("base", name, i) in v) || !(("change", name, i) in v)) continue
				x = v["base", name, i]; y = v["change", name, i]
				b[++nb] = x; c[++nc] = y
				if (x == y) ties++
				else if (higher == (y > x)) wins++
			}
			if (nb == 0) continue
			delete sb; delete sc
			sorted(b, nb, sb); sorted(c, nc, sc)
			won = known ? sprintf("%d of %d (%d tied; %s is better)", wins, nb, ties, better[name]) \
				: "direction unknown"
			printf "%-34s %-30s %-30s %s\n", name,
				sprintf("%.4g [%.4g, %.4g]", q(sb, nb, 0.5), q(sb, nb, 0.25), q(sb, nb, 0.75)),
				sprintf("%.4g [%.4g, %.4g]", q(sc, nc, 0.5), q(sc, nc, 0.25), q(sc, nc, 0.75)), won
		}
	}' "$work/better.txt" "$work/values.txt"

bad=$(cat "$work"/*.json | jq -s '[.[] | select(.correct != true)] | length')
if [ "$bad" -ne 0 ]; then
	echo "$bad run(s) not correct" >&2
	exit 1
fi
