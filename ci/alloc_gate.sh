#!/bin/sh
# Fast-path allocation regression gate.
#
# Runs the fast-path microbenchmarks with -benchmem and compares each
# one's allocs/op against the committed baseline in
# ci/alloc_baseline.txt. The gate fails if any benchmark exceeds its
# baseline by more than 5% — and since the committed baselines are zero
# (or one), in practice any new allocation on the write, read, lock-wait
# or value-wait fast path, or in a regular or optimistic section, fails
# CI. TestWriteFastPathAllocs, TestLockWaitAllocs and
# TestOptimisticSectionAllocs enforce the same bounds in-process on every
# plain `go test` run; this script is the belt to that suspender, pinned
# to the numbers a reviewer signed off on.
#
# To re-baseline after an intentional change, edit ci/alloc_baseline.txt
# in the same commit and say why in the commit message.
set -eu

cd "$(dirname "$0")/.."
baseline=ci/alloc_baseline.txt
out=$(mktemp)
trap 'rm -f "$out"' EXIT

go test . -run '^$' -bench 'BenchmarkLiveWrite$|BenchmarkLiveRead$|BenchmarkLiveLock$|BenchmarkLiveWaitGE$|BenchmarkLiveSection$' \
	-benchmem -benchtime 2000x | tee "$out"
go test ./internal/wire -run '^$' -bench 'BenchmarkWireEncodeBatch$|BenchmarkWireDecodeBatch$' \
	-benchmem -benchtime 2000x | tee -a "$out"
# The TCP paths in steady state. Receive: the per-frame header scratch
# that used to escape to the heap in the frame reader must not come back.
# Send: one op is one write syscall, so the heap object per write that
# building a net.Buffers cost would read as 1. The in-process push: a
# frame on the pusher's stack, pushed by pointer, must stay there.
go test ./internal/transport -run '^$' -bench 'BenchmarkTCPRecvFrames$|BenchmarkTCPSendFrames$|BenchmarkInProcPush$' \
	-benchmem -benchtime 20000x | tee -a "$out"

fail=0
while read -r name base; do
	case $name in ''|\#*) continue ;; esac
	cur=$(awk -v b="$name" '$1 ~ "^"b"(-[0-9]+)?$" { print $(NF-1) }' "$out")
	if [ -z "$cur" ]; then
		echo "alloc gate: benchmark $name produced no allocs/op figure" >&2
		fail=1
		continue
	fi
	# Integer allocs/op: anything above baseline*1.05 (rounded down, so a
	# zero baseline tolerates exactly zero) is a regression.
	limit=$(( base + base / 20 ))
	if [ "$cur" -gt "$limit" ]; then
		echo "alloc gate: $name allocs/op = $cur, baseline $base (limit $limit)" >&2
		fail=1
	else
		echo "alloc gate: $name allocs/op = $cur (baseline $base) ok"
	fi
done <"$baseline"
exit $fail
