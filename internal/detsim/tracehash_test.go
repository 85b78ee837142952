package detsim

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"optsync/internal/wire"
)

// The detsim traces are the refactor oracle for internal/gwc: a change
// that is meant to leave the protocol's message schedule alone must
// leave every trace identical, event for event, and one that moves it
// on purpose re-pins the file and says what moved.
//
// testdata/trace_hashes.txt holds one line per (scenario, seed) for
// seeds 1..pinnedSeeds of every invariant scenario. A plain run checks
// the first -seeds seeds of each (10 by default, 3 under -short; CI
// passes -seeds=180 and so checks the whole file). Rewrite it with
//
//	go test ./internal/detsim -run TestTraceHashes -update -v
//
// (-v shows, per scenario, how many traces moved and how many of those
// carry a state stream).

const (
	pinnedSeeds    = 180
	traceHashesTxt = "testdata/trace_hashes.txt"
)

var updateHashes = flag.Bool("update", false, "rewrite "+traceHashesTxt+" from seeds 1-180 of every invariant scenario")

// traceHash folds a run's whole trace and its verdict into one word.
func traceHash(r Result) string {
	h := fnv.New64a()
	for _, e := range r.Trace {
		fmt.Fprintf(h, "%+v\n", e)
	}
	fmt.Fprintf(h, "verdict: %v\n", r.Err)
	return fmt.Sprintf("%016x", h.Sum64())
}

func hashKey(name string, seed int64) string { return fmt.Sprintf("%s %d", name, seed) }

func TestTraceHashes(t *testing.T) {
	scs := invariantScenarios()
	if *updateHashes {
		writeTraceHashes(t, scs)
		return
	}
	pinned := readTraceHashes(t)
	if want := len(scs) * pinnedSeeds; len(pinned) != want {
		t.Fatalf("%s pins %d traces, want %d (%d scenarios x seeds 1-%d); re-pin with -update",
			traceHashesTxt, len(pinned), want, len(scs), pinnedSeeds)
	}
	n := min(explorationSeeds(t), pinnedSeeds)
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= int64(n); seed++ {
				r := RunSeed(sc, seed)
				if r.Err != nil {
					t.Errorf("seed %d failed: %v", seed, r.Err)
				}
				if got, want := traceHash(r), pinned[hashKey(sc.Name, seed)]; got != want {
					t.Errorf("seed %d: trace hash %s, pinned %s — the message schedule moved; if that is intended, re-pin with -update and say what moved",
						seed, got, want)
				}
			}
		})
	}
}

func readTraceHashes(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(traceHashesTxt)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	pinned := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", traceHashesTxt, line)
		}
		pinned[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pinned
}

// carriesStream reports whether a state stream or a batch frame crossed
// the wire during the run: the only frames a change to the stream
// encoding can move.
func carriesStream(r Result) bool {
	for _, e := range r.Trace {
		if e.Type == wire.TSnapLock || e.Type == wire.TBatch {
			return true
		}
	}
	return false
}

// writeTraceHashes runs the whole pinned corpus, one scenario per
// processor at a time, and rewrites the file in scenario-then-seed order.
// It logs, scenario by scenario, how many traces moved against the file
// it replaces and how many of those carry a TSnapLock or TBatch event:
// the report the file's header asks of a re-pinning change.
func writeTraceHashes(t *testing.T, scs []Scenario) {
	t.Helper()
	old := map[string]string{}
	if _, err := os.Stat(traceHashesTxt); err == nil {
		old = readTraceHashes(t)
	}
	lines := make([][]string, len(scs))
	moved, streamed := make([]int, len(scs)), make([]int, len(scs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0)) // one slot per scenario in flight
	for i, sc := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for seed := int64(1); seed <= pinnedSeeds; seed++ {
				r := RunSeed(sc, seed)
				if r.Err != nil {
					t.Errorf("scenario %s seed %d failed: %v", sc.Name, seed, r.Err)
				}
				key, hash := hashKey(sc.Name, seed), traceHash(r)
				lines[i] = append(lines[i], key+" "+hash)
				if old[key] != hash {
					moved[i]++
					if carriesStream(r) {
						streamed[i]++
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, sc := range scs {
		t.Logf("%-34s moved %3d/%d, %3d of them carrying TSnapLock or TBatch", sc.Name, moved[i], pinnedSeeds, streamed[i])
	}
	var b strings.Builder
	b.WriteString("# detsim trace hashes: <scenario> <seed> <fnv64a of the event trace and verdict>.\n")
	b.WriteString("# Checked by TestTraceHashes; rewrite with: go test ./internal/detsim -run TestTraceHashes -update\n")
	b.WriteString("# A change that re-pins this file says, scenario by scenario, what moved (EXPERIMENTS.md).\n")
	for _, ls := range lines {
		for _, l := range ls {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(traceHashesTxt, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
