#!/bin/sh
# Frame-construction gate: internal/wire is the one package that knows
# which Message field carries which operand of which kind, so every frame
# the runtime sends is built by a constructor there (internal/wire/frames.go).
# Fail on any wire.Message composite literal with a field set in non-test
# Go outside internal/wire. bench/ is a module of its own and is not
# checked.
#
#	sh ci/wire_literals.sh
set -eu
cd "$(dirname "$0")/.."

hits=$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^internal/wire/' | grep -v '^bench/' |
	xargs grep -nP 'wire\.Message\{(?!\})' || true)
if [ -n "$hits" ]; then
	echo "wire literal gate: build frames with internal/wire's constructors, not a wire.Message literal:" >&2
	echo "$hits" >&2
	exit 1
fi
echo "wire literal gate: ok"
