package detsim

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"optsync/internal/gwc"
)

// testdata/counters.txt pins every node's gwc.Stats at the end of seeds
// 1..countersSeeds of every invariant scenario: the oracle for a change
// that moves where the protocol counts its events but must not change
// what it counts. A field that moves on purpose re-pins the file with
//
//	go test ./internal/detsim -run TestCounters -update-counters
//
// and the change names the field. Zero counters are left out of a line,
// so a field that is always zero here can go without touching the file.

const (
	countersSeeds = 10
	countersTxt   = "testdata/counters.txt"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite "+countersTxt+" from seeds 1-10 of every invariant scenario")

// statsLine renders one node's counters as name=value pairs in field
// order, nested structs flattened with a dotted name, zeros left out.
func statsLine(s gwc.Stats) string {
	var b strings.Builder
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name, f := prefix+v.Type().Field(i).Name, v.Field(i)
			if f.Kind() == reflect.Struct {
				walk(name+".", f)
				continue
			}
			if f.Int() != 0 {
				fmt.Fprintf(&b, " %s=%d", name, f.Int())
			}
		}
	}
	walk("", reflect.ValueOf(s))
	return b.String()
}

// countersOf runs seeds 1..countersSeeds of every invariant scenario and
// returns one line per node per run, in scenario-then-seed-then-node order.
func countersOf(t *testing.T) []string {
	scs := invariantScenarios()
	lines := make([][]string, len(scs))
	var wg sync.WaitGroup
	for i, sc := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := int64(1); seed <= countersSeeds; seed++ {
				r := RunSeed(sc, seed)
				if r.Err != nil {
					t.Errorf("scenario %s seed %d failed: %v", sc.Name, seed, r.Err)
				}
				for node, s := range r.Stats {
					lines[i] = append(lines[i], fmt.Sprintf("%s %d n%d%s", sc.Name, seed, node, statsLine(s)))
				}
			}
		}()
	}
	wg.Wait()
	var all []string
	for _, ls := range lines {
		all = append(all, ls...)
	}
	return all
}

func TestCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10 seeds of every invariant scenario")
	}
	got := countersOf(t)
	if *updateCounters {
		body := "# detsim counters: <scenario> <seed> <node> <non-zero gwc.Stats fields>.\n" +
			"# Checked by TestCounters; rewrite with: go test ./internal/detsim -run TestCounters -update-counters\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(countersTxt, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(countersTxt)
	if err != nil {
		t.Fatalf("%v (generate with -update-counters)", err)
	}
	var want []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d counter lines, %s pins %d", len(got), countersTxt, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("counters moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
