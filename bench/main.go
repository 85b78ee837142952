// Command bench is the repository's one benchmark. It runs named
// workloads on the live runtime through the public optsync API with
// tracing off, checks their outputs, and prints every end-to-end metric;
// with -trace 1 it runs the short traced pass that yields the per-layer
// metrics from outside the program instead. See README.md beside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

const maxFailuresShown = 8

const transportNote = "host loopback, no injected delay: InProc latency is processor time only, TCP latency is the loopback interface, not a real link"

// fingerprint identifies the rig a result came from.
type fingerprint struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Transport  string  `json:"transport"`
	SchedP99us float64 `json:"proc.sched_lat_p99_us"` // worst workload's
}

// metricResult is one metric on one workload.
type metricResult struct {
	metricDef
	Alias   string    `json:"alias,omitempty"` // what it measures on this workload
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"` // (max-min)/median over slices
	Slices  []float64 `json:"slices,omitempty"`
	Samples uint64    `json:"samples,omitempty"` // latency samples in the thinnest slice
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	Op        string         `json:"op"`
	OpHash    string         `json:"op_sequence_hash"`
	Traced    bool           `json:"traced"`
	Correct   bool           `json:"correct"`
	Attempted uint64         `json:"attempted"`
	Failed    uint64         `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	Noisy     bool           `json:"noisy"`
	Metrics   []metricResult `json:"metrics"`
}

type resultFile struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	Workloads   []workloadResult `json:"workloads"`
}

func (w *workloadResult) metric(name string) *metricResult {
	for i := range w.Metrics {
		if w.Metrics[i].Name == name {
			return &w.Metrics[i]
		}
	}
	return nil
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

// outDir is where result and trace files go: bench/out under the
// repository root, or out when run from inside bench/.
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: every workload, the held-back contend_opt_inproc included)")
		seed    = flag.Int64("seed", 1, "seed of the workload inputs")
		seconds = flag.Int("seconds", slices*4, "measured seconds per workload (five slices)")
		trace   = flag.Int("trace", 0, "1: the traced pass and the per-layer metrics; 0: the end-to-end metrics")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two result files")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %v", flag.Args())
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fatal("GOMAXPROCS is %d; the rig needs 2 (two client goroutines beside the nodes' own)", runtime.GOMAXPROCS(0))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal("-seconds must be at least 1 and -trace 0 or 1")
	}
	run := everyWorkload()
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		run = []*workload{w}
	}
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("%v", err)
	}

	res := resultFile{Fingerprint: fingerprint{
		Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: kernelRelease(), Seed: *seed, Seconds: *seconds, Transport: transportNote,
	}}
	fmt.Printf("optsync bench: seed %d, %d s per workload, %d cpus, %s\n# %s\n", *seed, *seconds, runtime.NumCPU(), runtime.Version(), transportNote)
	dur := time.Duration(*seconds) * time.Second
	for _, w := range run {
		var wr workloadResult
		var err error
		if *trace == 1 {
			wr, err = runTraced(w, *seed, dur, dir)
		} else {
			wr, err = runEndToEnd(w, *seed, dur)
		}
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		printWorkload(&wr)
		if m := wr.metric("proc.sched_lat_p99_us"); m != nil && m.Median > res.Fingerprint.SchedP99us {
			res.Fingerprint.SchedP99us = m.Median
		}
		res.Workloads = append(res.Workloads, wr)
	}
	file := "result.json"
	if *trace == 1 {
		file = "result-trace.json"
	}
	if err := writeJSON(filepath.Join(dir, file), res); err != nil {
		fatal("%v", err)
	}
	if *name != "" {
		printContractLine(&res.Workloads[0], *trace == 1)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printWorkload prints every metric of one workload by name and unit.
func printWorkload(w *workloadResult) {
	fmt.Printf("\n== %s (one op = one %s; inputs %s)\n   %s\n", w.Name, w.Op, w.OpHash, w.Why)
	for _, m := range w.Metrics {
		label := m.Name
		if m.Alias != "" {
			label += " (" + m.Alias + ")"
		}
		line := fmt.Sprintf("   %-46s %14.4f %-6s", label, m.Median, m.Unit)
		if len(m.Slices) > 1 {
			line += fmt.Sprintf(" noise %5.1f%%", 100*m.Spread)
		}
		if m.Bound > 0 {
			line += fmt.Sprintf("  %s is better, bound %.0f%%", m.Better, 100*m.Bound)
		}
		if m.Samples > 0 {
			line += fmt.Sprintf("  n>=%d/slice", m.Samples)
			if m.Samples < p99Samples && strings.Contains(m.Name, "_p99_") {
				line += " (too few for p99)"
			}
		}
		fmt.Println(line)
	}
	status := "outputs correct"
	if !w.Correct {
		status = "OUTPUTS WRONG"
	}
	if w.Noisy {
		status += "; NOISY: scheduling latency p99 passed 1 ms"
	}
	fmt.Printf("   %s; attempted %d, failed %d\n", status, w.Attempted, w.Failed)
	for i, f := range w.Failures {
		if i == maxFailuresShown {
			fmt.Printf("   ... and %d more failures (all are in the result file)\n", len(w.Failures)-i)
			break
		}
		fmt.Printf("   failure: %s\n", f)
	}
}

// printContractLine prints the driver's one-line result: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printContractLine(w *workloadResult, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, make(map[string]value)}
	for _, d := range defs {
		v := value{Unit: d.Unit}
		if m := w.metric(d.Name); m != nil {
			v.Value = m.Median
		}
		out.Metrics[d.Name] = v
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
}

// results turns a pass's per-slice series into metric results for the
// definitions given, in their order; metrics the pass lacks are left out.
func results(defs []metricDef, m *measured, w *workload) []metricResult {
	var out []metricResult
	for _, d := range defs {
		s := m.series[d.Name]
		if s == nil {
			continue
		}
		r := metricResult{metricDef: d, Alias: w.alias(d.Name), Median: median(s.values), Spread: spread(s.values), Slices: s.values, Samples: s.samples}
		out = append(out, r)
	}
	return out
}

// scalars appends single-valued metrics (rungs, counts, journeys) for
// the definitions that vals has a value for.
func scalars(out []metricResult, defs []metricDef, vals map[string]float64) []metricResult {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			out = append(out, metricResult{metricDef: d, Median: v})
		}
	}
	return out
}
