#!/usr/bin/env bash
# Same-rig A/B of two revisions on one bench/ workload, by the rig rules
# ROADMAP.md sets out:
#
#	bash ci/ab.sh <parent-rev> <change-rev> <workload> <pairs> <first-seed>
#
# Both revisions must be commits of this checkout. Each is cloned into a
# directory of its own, and the two paths have one length (…/p and …/c),
# so neither side's file names are longer. Each clone is a clean, committed
# checkout, so both binaries carry the same kind of VCS stamp: a binary
# built in a working tree with changes is stamped vcs.modified, and that
# alone has read setup_s x1.5 on identical source. Each side is built and
# run by its own bench/run.sh, as the benchmark's runs of two commits do.
#
# Pair i runs both sides on seed first-seed+i, for AB_SECONDS (default 20)
# seconds each, untraced; the side that runs first alternates pair by pair,
# the parent first in pair 0. Pick fresh seeds: ROADMAP.md lists the used
# ones. Every run is listed — none is dropped — then each metric's median
# and quartiles per side, the change/parent ratio and the pairs the change
# won, and last bench's own -compare of every pair.
#
# AB_DIR (default: a new temporary directory) holds the clones and every
# run's output and result file.
set -euo pipefail

if [ $# -ne 5 ]; then
	echo "usage: $0 <parent-rev> <change-rev> <workload> <pairs> <first-seed>" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seed0=$5
secs=${AB_SECONDS:-20}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
dir=${AB_DIR:-$(mktemp -d)}
mkdir -p "$dir/runs"

for side in p c; do
	rev=$parent
	[ "$side" = c ] && rev=$change
	if [ -d "$dir/$side" ]; then
		git -C "$dir/$side" fetch -q origin
	else
		git clone -q "$root" "$dir/$side"
		# What a run writes must not mark the next build modified.
		printf '.bench_build/\nbench/out/\n' >>"$dir/$side/.git/info/exclude"
	fi
	git -C "$dir/$side" checkout -q --detach "$rev"
	if [ -n "$(git -C "$dir/$side" status --porcelain)" ]; then
		echo "ab: clone $dir/$side is not clean" >&2
		exit 1
	fi
done
echo "parent $(git -C "$dir/p" rev-parse HEAD) in $dir/p"
echo "change $(git -C "$dir/c" rev-parse HEAD) in $dir/c"

# run <side> <seed>: one untraced run, its stdout and result file kept.
run() {
	local out="$dir/runs/$1-$2"
	(cd "$dir/$1" && bash bench/run.sh --workload "$workload" --seed "$2" --seconds "$secs" --trace 0) >"$out.txt"
	cp "$dir/$1/bench/out/result.json" "$out.json"
}

for ((i = 0; i < pairs; i++)); do
	s=$((seed0 + i))
	if ((i % 2 == 0)); then
		run p "$s"
		run c "$s"
	else
		run c "$s"
		run p "$s"
	fi
	echo "pair $((i + 1))/$pairs done (seed $s)" >&2
done

metrics="setup_s op_p50_adj_us ops_adj_per_s cpu_adj_us_per_op allocs_per_op"
# value <file> <metric>: the metric's value on a run's one-line result.
value() {
	tail -n 1 "$1" | grep -o "\"$2\":{\"value\":[^,]*" | sed 's/.*://'
}

echo
echo "every run ($workload, $secs s, untraced):"
printf '%-6s %-6s %-6s' seed side first
for m in $metrics; do printf ' %18s' "$m"; done
printf ' %10s %8s\n' attempted failed
for ((i = 0; i < pairs; i++)); do
	s=$((seed0 + i))
	for side in p c; do
		first=no
		if { ((i % 2 == 0)) && [ $side = p ]; } || { ((i % 2 == 1)) && [ $side = c ]; }; then first=yes; fi
		f="$dir/runs/$side-$s.txt"
		printf '%-6s %-6s %-6s' "$s" "$side" "$first"
		for m in $metrics; do printf ' %18.6g' "$(value "$f" "$m")"; done
		line=$(tail -n 1 "$f")
		printf ' %10s %8s\n' "$(echo "$line" | grep -o '"attempted":[0-9]*' | cut -d: -f2)" \
			"$(echo "$line" | grep -o '"failed":[0-9]*' | cut -d: -f2)"
	done
done

echo
echo "per metric: median [q1, q3] per side (linear quartiles), change/parent, pairs the change won"
for m in $metrics; do
	better=lower
	[ "$m" = ops_adj_per_s ] && better=higher
	for ((i = 0; i < pairs; i++)); do
		s=$((seed0 + i))
		echo "$(value "$dir/runs/p-$s.txt" "$m") $(value "$dir/runs/c-$s.txt" "$m")"
	done | awk -v m="$m" -v better="$better" '
		# sorted insert of x into a[0..n-1]
		function put(a, n, x,   i) {
			for (i = n; i > 0 && a[i - 1] > x; i--) a[i] = a[i - 1]
			a[i] = x
		}
		function q(a, n, f,   h, lo) {
			h = (n - 1) * f; lo = int(h)
			return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
		}
		{ put(p, NR - 1, $1 + 0); put(c, NR - 1, $2 + 0)
		  if (better == "lower" ? $2 + 0 < $1 + 0 : $2 + 0 > $1 + 0) won++ }
		END {
			n = NR; mp = q(p, n, 0.5); mc = q(c, n, 0.5)
			printf "%-18s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  x%.3f  won %d/%d\n",
				m, mp, q(p, n, 0.25), q(p, n, 0.75), mc, q(c, n, 0.25), q(c, n, 0.75),
				mp ? mc / mp : 0, won, n
		}'
done

echo
for ((i = 0; i < pairs; i++)); do
	s=$((seed0 + i))
	"$dir/p/.bench_build/optbench" -compare "$dir/runs/p-$s.json" "$dir/runs/c-$s.json" || true
done
