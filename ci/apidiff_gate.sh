#!/bin/sh
# API surface gate: fail CI when the exported surface of the root
# optsync package loses or changes a declaration relative to the
# committed baseline, or when internal/gwc's differs from its own in
# either direction.
#
# ci/apisurface (stdlib-only go/ast, no module downloads — works in a
# network-sandboxed CI step) prints one canonical sorted line per
# exported declaration. Any baseline line missing from the current
# surface is a removal or an incompatible signature change and fails
# the gate. Pure additions pass but are reported so the baseline gets
# refreshed.
#
# To change the public API intentionally, re-baseline in the same
# commit and say why in the commit message:
#
#   go run ./ci/apisurface . > ci/api_baseline.txt
#
# internal/gwc is pinned exactly: no caller outside the module can break,
# but an export nothing in production calls accumulates unseen, so each
# one is added (or dropped) on purpose, the same way:
#
#   go run ./ci/apisurface ./internal/gwc > ci/gwc_api_baseline.txt
set -eu
cd "$(dirname "$0")/.."

baseline=ci/api_baseline.txt
if [ ! -f "$baseline" ]; then
    echo "apidiff gate: missing $baseline (generate with: go run ./ci/apisurface . > $baseline)" >&2
    exit 1
fi

current=$(mktemp)
trap 'rm -f "$current"' EXIT
go run ./ci/apisurface . > "$current"

# Baseline lines absent from the current surface = breaking changes.
removed=$(comm -23 "$baseline" "$current")
# Current lines absent from the baseline = additions (non-breaking).
added=$(comm -13 "$baseline" "$current")

if [ -n "$removed" ]; then
    echo "apidiff gate: FAIL — exported declarations removed or changed vs $baseline:" >&2
    echo "$removed" | sed 's/^/  - /' >&2
    if [ -n "$added" ]; then
        echo "possibly replaced by:" >&2
        echo "$added" | sed 's/^/  + /' >&2
    fi
    echo "If intentional, re-baseline: go run ./ci/apisurface . > $baseline" >&2
    exit 1
fi

if [ -n "$added" ]; then
    echo "apidiff gate: OK — new exported declarations (re-baseline to pin them):"
    echo "$added" | sed 's/^/  + /'
else
    echo "apidiff gate: OK — surface matches baseline ($(wc -l < "$baseline" | tr -d ' ') declarations)"
fi

gwc_baseline=ci/gwc_api_baseline.txt
go run ./ci/apisurface ./internal/gwc > "$current"
if ! diff -u "$gwc_baseline" "$current" > /dev/null; then
    echo "apidiff gate: FAIL — internal/gwc's exported surface differs from $gwc_baseline (- baseline, + current):" >&2
    diff -u "$gwc_baseline" "$current" | tail -n +3 | grep '^[-+]' | sed 's/^/  /' >&2
    echo "If intentional, re-baseline: go run ./ci/apisurface ./internal/gwc > $gwc_baseline" >&2
    exit 1
fi
echo "apidiff gate: OK — internal/gwc matches $gwc_baseline ($(wc -l < "$gwc_baseline" | tr -d ' ') declarations)"
