#!/bin/sh
# Counter gate: a protocol event is counted once, by the per-type event
# count in internal/obs (Node.emit / Node.Emit), and gwc.Stats and
# core.Stats are read off those counts. Fail on an increment (++, +=) of
# a stats.* or out.* field in non-test Go under internal/gwc or
# internal/core, so a second counter store cannot grow back.
#
#	sh ci/counters.sh
set -eu
cd "$(dirname "$0")/.."

hits=$(git ls-files 'internal/gwc/*.go' 'internal/core/*.go' | grep -v '_test\.go$' |
	xargs grep -nE '\b(stats|out)\.[A-Za-z_.]+[[:space:]]*(\+\+|\+=)' || true)
if [ -n "$hits" ]; then
	echo "counter gate: count a protocol event with n.emit(obs.Ev...), not a stats field:" >&2
	echo "$hits" >&2
	exit 1
fi
echo "counter gate: ok"
