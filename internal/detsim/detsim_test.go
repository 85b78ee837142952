package detsim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Exploration knobs. CI runs a large fixed corpus plus a small
// wall-clock-seeded batch (see .github/workflows/ci.yml); locally the
// defaults keep `go test ./...` quick. Reproduce any reported failure
// with:
//
//	go test ./internal/detsim -run Explore/<scenario> -seeds=1 -seed-base=<seed>
var (
	seedCount = flag.Int("seeds", 10, "seeds per scenario for the exploration tests")
	seedBase  = flag.Int64("seed-base", 1, "first seed of the exploration range")
)

// explorationSeeds applies -short so the exploration tests stay cheap
// under `go test -short ./...`.
func explorationSeeds(t *testing.T) int {
	n := *seedCount
	if testing.Short() && n > 3 {
		n = 3
	}
	if n < 1 {
		t.Fatalf("-seeds must be >= 1, got %d", n)
	}
	return n
}

// reportFailures fails the test for every failing seed, logs the replay
// command, and (when DETSIM_FAIL_LOG names a file) appends each
// failure's trace tail so CI can upload failing seeds as an artifact.
func reportFailures(t *testing.T, failures []Result) {
	t.Helper()
	if len(failures) == 0 {
		return
	}
	if path := os.Getenv("DETSIM_FAIL_LOG"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("DETSIM_FAIL_LOG: %v", err)
		} else {
			for _, r := range failures {
				fmt.Fprintf(f, "%s\nerror: %v\n\n", r.DumpTail(40), r.Err)
			}
			f.Close()
		}
	}
	for _, r := range failures {
		t.Errorf("scenario %s seed %d failed after %d events: %v", r.Name, r.Seed, r.Steps, r.Err)
		t.Logf("replay: go test ./internal/detsim -run Explore/%s -seeds=1 -seed-base=%d -v", r.Name, r.Seed)
	}
}

// invariantScenarios lists the scenarios every seed must pass: what
// TestExplore sweeps and TestTraceHashes pins.
func invariantScenarios() []Scenario {
	return []Scenario{
		RootCrashMidBatch(),
		PartitionDuringElection(),
		RejoinUnderLoad(),
		FenceRegression(),
		SpeculationSuppression(),
		QuorumParkRegression(),
		LeaseParkWatchdog(),
		DegradedRead(),
		SessionFairnessChurn(),
		SessionFailoverMultiHolder(),
		DivergenceRepair(),
		LeaseExpiryVsFailover(),
		HandoffChainConvoy(),
	}
}

// TestExplore sweeps every invariant scenario across the seed range.
// Each seed is a complete schedule of the live gwc stack — every
// delivery, drop, duplication, and timer firing chosen by the seeded
// scheduler — and every failure replays bit-identically from its seed.
func TestExplore(t *testing.T) {
	n := explorationSeeds(t)
	for _, sc := range invariantScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			reportFailures(t, Explore(sc, *seedBase, n))
		})
	}
}

// TestReplayIsBitIdentical pins the harness's core promise: the same
// scenario under the same seed produces the same event trace, event for
// event. Event is a flat comparable struct, so == is an exact check.
func TestReplayIsBitIdentical(t *testing.T) {
	sc := RootCrashMidBatch()
	a := RunSeed(sc, *seedBase)
	b := RunSeed(sc, *seedBase)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if a.Steps != b.Steps || len(a.Trace) != len(b.Trace) {
		t.Fatalf("replay diverged in length: %d events vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("replay diverged at event %d:\n  %s\n  %s", i, a.Trace[i], b.Trace[i])
		}
	}
}

// TestViolationReproducesFromSeed is the acceptance check for failure
// reproduction: a scenario that forges a lock grant (two nodes in the
// critical section at once) must fail on every seed, and any reported
// failure must replay from its seed alone — twice, with identical
// traces and an identical checker verdict.
func TestViolationReproducesFromSeed(t *testing.T) {
	failures := Explore(ForgedGrant(), *seedBase, 3)
	if len(failures) != 3 {
		t.Fatalf("forged grant slipped past the checker on %d of 3 seeds", 3-len(failures))
	}
	r := failures[0]
	if !strings.Contains(r.Err.Error(), "acknowledged 2 times") {
		t.Fatalf("wrong violation detected: %v", r.Err)
	}
	first := RunSeed(ForgedGrant(), r.Seed)
	second := RunSeed(ForgedGrant(), r.Seed)
	for _, rr := range []Result{first, second} {
		if rr.Err == nil || rr.Err.Error() != r.Err.Error() {
			t.Fatalf("replay of seed %d did not reproduce the violation:\n  explore: %v\n  replay:  %v",
				r.Seed, r.Err, rr.Err)
		}
	}
	if len(first.Trace) != len(second.Trace) {
		t.Fatalf("replays diverged in length: %d events vs %d", len(first.Trace), len(second.Trace))
	}
	for i := range first.Trace {
		if first.Trace[i] != second.Trace[i] {
			t.Fatalf("replays diverged at event %d:\n  %s\n  %s", i, first.Trace[i], second.Trace[i])
		}
	}
}

// TestPinnedRegressionSeeds replays the exact seeds on which this
// harness found real protocol bugs, pinning their fixes:
//
//   - partition-during-election seed 7: a member's eager guarded write
//     was rolled back by a failover snapshot cut before the write was
//     sequenced, and hardware blocking then dropped the echo of its own
//     re-sequenced write — the only message that could repair the copy —
//     leaving the member permanently diverged (fixed by the eager-store
//     bookkeeping in gwc's applyData, and by parking live stream traffic
//     behind the snapshot).
//
//   - root-crash-mid-batch seed 175: a failover lock grant reached a
//     member through the new reign's live stream before the member's
//     state snapshot, so its critical section read pre-merge data and
//     re-committed an already-committed counter transition (fixed by
//     parking sequenced traffic while a snapshot is outstanding).
//
//   - divergence-repair seed 6: the schedule that shaped the scenario's
//     two-phase design — under load, digest probes queue behind the
//     data backlog on the root→member link, so detection latency
//     measures the scheduler's queueing, not the sweep; the scenario
//     therefore asserts the one-sweep-interval bound only on a drained
//     cluster, and this seed pins that the drain actually completes and
//     the quiescent-phase conviction meets the bound.
//
//   - quorum-park-regression seed 1: under SetQuorumAcks a lock handoff
//     parked behind the commit watermark left the lock holderless, so a
//     clean speculation's guarded writes landing in the park window were
//     suppressed not-holder while the speculator later committed —
//     silent data loss (fixed by designating the winner at park time and
//     deferring only the grant multicast; see lockState.pendingGrant in
//     gwc's root.go).
//
// Seed 175 fails deterministically with the stream parking reverted;
// seed 7 fails with both fixes reverted (either one represses it); the
// quorum-park scenario fails on every seed with the pendingGrant
// designation reverted.
func TestPinnedRegressionSeeds(t *testing.T) {
	for _, pin := range []struct {
		sc   Scenario
		seed int64
	}{
		{PartitionDuringElection(), 7},
		{RootCrashMidBatch(), 175},
		{DivergenceRepair(), 6},
		{QuorumParkRegression(), 1},
	} {
		if r := RunSeed(pin.sc, pin.seed); r.Err != nil {
			t.Errorf("scenario %s seed %d regressed: %v", pin.sc.Name, pin.seed, r.Err)
		}
	}
}
