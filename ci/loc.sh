#!/bin/sh
# Code-only line counts, the one recipe ROADMAP / ISSUE / CHANGES numbers
# come from: the non-test .go files directly in each package directory,
# lines that are neither blank nor //-only.
#
#	sh ci/loc.sh            # the packages ROADMAP tracks
#	sh ci/loc.sh DIR...     # any others
set -eu

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- internal/gwc internal/wire internal/core internal/detsim internal/transport . bench

for dir; do
	n=$(ls "$dir"/*.go | grep -v '_test\.go$' | xargs cat | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')
	printf '%-20s %6d\n' "$dir" "$n"
done
