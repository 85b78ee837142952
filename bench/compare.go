package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict is -compare's ruling on one (metric, workload) pair.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// judge rules on b against base a. The change is worse when its median
// is worse than the base's by more than the metric's bound; but when
// either run's own spread is wider than the bound and the two runs'
// slices overlap, the runs cannot tell, and the pair is unresolved
// instead of ok or worse. A change within the metric's floor is ok.
func judge(a, b *metricResult) (verdict, float64) {
	if a.Median == 0 {
		if b.Median == 0 {
			return ok, 1
		}
		return unresolved, math.Inf(1)
	}
	ratio := b.Median / a.Median
	if a.Floor > 0 && math.Abs(b.Median-a.Median) <= a.Floor {
		return ok, ratio // too small a change to matter, whatever its share
	}
	worseBy := ratio - 1
	if a.Better == "higher" {
		worseBy = 1 - ratio
	}
	aLo, aHi := minMax(a.Slices)
	bLo, bHi := minMax(b.Slices)
	overlap := aLo <= bHi && bLo <= aHi
	wide := a.Spread > a.Bound || b.Spread > a.Bound
	switch {
	case wide && overlap:
		return unresolved, ratio
	case worseBy > a.Bound:
		return worse, ratio
	}
	return ok, ratio
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare prints, for every end-to-end metric of every workload both
// files hold, both medians and spreads, the ratio with its base and the
// verdict. It returns the exit code: 1 if any pair is worse.
func runCompare(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readResult(pathB)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("base %s (commit %s, seed %d)\nnew  %s (commit %s, seed %d)\n", pathA, a.Fingerprint.Commit, a.Fingerprint.Seed, pathB, b.Fingerprint.Commit, b.Fingerprint.Seed)
	fmt.Printf("%-16s %-16s %14s %7s %14s %7s %18s  %s\n", "workload", "metric", "base", "noise", "new", "noise", "new/base", "verdict")
	counts := map[verdict]int{}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		var wb *workloadResult
		for j := range b.Workloads {
			if b.Workloads[j].Name == wa.Name {
				wb = &b.Workloads[j]
			}
		}
		if wb == nil {
			continue
		}
		for k := range wa.Metrics {
			ma := &wa.Metrics[k]
			mb := wb.metric(ma.Name)
			if ma.Bound == 0 || mb == nil {
				continue // per-layer, or not in both
			}
			v, ratio := judge(ma, mb)
			counts[v]++
			fmt.Printf("%-16s %-16s %14.4f %6.1f%% %14.4f %6.1f%% %8.3f of %-8.4g %s\n",
				wa.Name, ma.Name, ma.Median, 100*ma.Spread, mb.Median, 100*mb.Spread, ratio, ma.Median, v)
		}
		if wb.Failed > wa.Failed {
			counts[worse]++
			fmt.Printf("%-16s %-16s %14d %7s %14d %7s %18s  %s\n", wa.Name, "failed", wa.Failed, "", wb.Failed, "", "", worse)
		}
	}
	fmt.Printf("%d ok, %d unresolved, %d worse\n", counts[ok], counts[unresolved], counts[worse])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}
