package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"optsync/internal/transport"
	"optsync/internal/wire"
)

// testSlice makes a pass measure for 200 ms in all.
const testSlice = 200 * time.Millisecond / slices

func publicPass(w *workload, seed int64) *pass {
	return &pass{w: w, plan: newPlan(seed, w.shape), build: func() (cluster, error) { return newPublic(w.shape) }}
}

func tracedPass(w *workload, seed int64) (*pass, *tracer) {
	tr := newTracer()
	return &pass{w: w, plan: newPlan(seed, w.shape), tr: tr, build: func() (cluster, error) { return newLayered(w.shape, tr.wrap) }}, tr
}

func randomMessage(r *rand.Rand) wire.Message {
	m := wire.Message{
		Type: wire.Type(1 + r.Intn(12)), Group: r.Uint32(), Src: 0, Origin: r.Int31(), Seq: r.Uint64(),
		Var: r.Uint32(), Lock: r.Uint32(), Val: r.Int63(), Guarded: r.Intn(2) == 0, Epoch: r.Uint32(),
		Deadline: r.Int63(), Session: r.Uint32(),
	}
	if r.Intn(8) == 0 {
		m.Type = wire.TBatch
		for i := 0; i < 1+r.Intn(4); i++ {
			m.Batch = append(m.Batch, wire.Message{Type: wire.TUpdate, Group: m.Group, Var: r.Uint32(), Val: r.Int63()})
		}
	}
	return m
}

// The decorator must be invisible to the program: every frame arrives
// identical and in order, and each call leaves exactly one span.
func TestDecoratorPassesFramesThrough(t *testing.T) {
	nw, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	tr := newTracer()
	tr.on.Store(true)
	var eps [2]transport.Endpoint
	for i := range eps {
		ep, err := nw.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = tr.wrap(i, ep)
	}
	r := rand.New(rand.NewSource(7))
	const n = 500
	msgs := make([]wire.Message, n)
	for i := range msgs {
		msgs[i] = randomMessage(r)
		if err := eps[0].Send(1, msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range msgs {
		got, ok := eps[1].Recv()
		if !ok {
			t.Fatalf("endpoint closed after %d frames", i)
		}
		if !wire.Equal(got, msgs[i]) {
			t.Fatalf("frame %d changed in transit:\n sent %+v\n got  %+v", i, msgs[i], got)
		}
	}
	if spans := tr.recorded(); len(spans) != 2*n || tr.dropped.Load() != 0 {
		t.Fatalf("%d spans, %d dropped; want %d and 0", len(spans), tr.dropped.Load(), 2*n)
	}
	if frames, bytes, _ := sent(tr.recorded()); frames != uint64(n) || bytes < uint64(n*wire.EncodedSize) || len(tr.frameMix()) != n {
		t.Fatalf("counted %d frames of %d bytes, sampled %d; want %d frames", frames, bytes, len(tr.frameMix()), n)
	}
}

func TestSpanBufferCountsOverflow(t *testing.T) {
	tr := newTracer()
	for i := 0; i < spanCap+5; i++ {
		tr.add(span{})
	}
	if !tr.nearlyFull() || len(tr.recorded()) != spanCap || tr.dropped.Load() != 5 {
		t.Fatalf("kept %d, dropped %d, nearlyFull %v", len(tr.recorded()), tr.dropped.Load(), tr.nearlyFull())
	}
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, w := range everyWorkload() {
		a, b, c := newPlan(1, w.shape).hash(), newPlan(1, w.shape).hash(), newPlan(2, w.shape).hash()
		if a != b {
			t.Errorf("%s: seed 1 gave two operation sequences, %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same operation sequence %x", w.name, a)
		}
	}
}

// Each driver workload runs end to end, completes operations, fails none
// and passes its output check.
func TestWorkloadsRunAndCheckOut(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			out, err := publicPass(w, 1).run(0, testSlice)
			if err != nil {
				t.Fatal(err)
			}
			if out.m.ops == 0 || out.m.failed != 0 || len(out.failures) != 0 {
				t.Fatalf("ops %d, failed %d, check failures %v", out.m.ops, out.m.failed, out.failures)
			}
			wr := newResult(w, newPlan(1, w.shape), false)
			out.m.series["setup_s"] = &series{values: out.setups}
			wr.Metrics = results(endToEnd, out.m, w)
			for _, d := range endToEnd {
				if m := wr.metric(d.Name); m == nil || m.Median <= 0 {
					t.Errorf("end-to-end metric %s missing or zero: %+v", d.Name, m)
				}
			}
		})
	}
}

func TestCheckerCatchesDoctoredState(t *testing.T) {
	good := func() state {
		return state{
			values:     [][]int64{{10, 10, 0}, {10, 10, 0}, {10, 10, 0}, {10, 10, 0}},
			want:       []int64{10, 10, 0},
			optimistic: 7, commits: 5, rollbacks: 2,
		}
	}
	if bad := checkState(good()); len(bad) != 0 {
		t.Fatalf("consistent state rejected: %v", bad)
	}
	lost := good() // every copy agrees, but one increment never landed
	for _, vals := range lost.values {
		vals[1] = 9
	}
	if bad := checkState(lost); len(bad) != nodes {
		t.Errorf("lost update: %d violations, want one per node: %v", len(bad), bad)
	}
	diverged := good() // member 2 missed the last write
	diverged.values[2][0] = 9
	if bad := checkState(diverged); len(bad) != 1 || !strings.Contains(bad[0], "node 2") {
		t.Errorf("divergent member: %v", bad)
	}
	unbalanced := good()
	unbalanced.commits = 4
	if bad := checkState(unbalanced); len(bad) != 1 {
		t.Errorf("speculation neither committed nor rolled back: %v", bad)
	}
}

// The traced pass must find, for at least 99 % of the timed operations,
// every frame span of the journey, with no stage running backwards.
func TestStageMatching(t *testing.T) {
	for _, tc := range []struct {
		workload string
		journey  func([]span) *journey
	}{
		{"write_inproc", writeJourney},
		{"write_tcp", writeJourney},
		{"section_tcp", lockJourney},
	} {
		tc := tc
		t.Run(tc.workload, func(t *testing.T) {
			p, tr := tracedPass(findWorkload(tc.workload), 1)
			out, err := p.run(0, testSlice)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.failures) != 0 || tr.dropped.Load() != 0 {
				t.Fatalf("failures %v, dropped spans %d", out.failures, tr.dropped.Load())
			}
			j := tc.journey(tr.recorded())
			if j.ops < 20 || !j.complete() {
				t.Fatalf("matched %d of %d traced operations", j.matched, j.ops)
			}
			for i, name := range j.names {
				if j.stages[i].Count() != uint64(j.matched) {
					t.Errorf("%s has %d samples, want %d", name, j.stages[i].Count(), j.matched)
				}
			}
			if e := j.sumErr(); e > 0.5 {
				t.Errorf("stage medians are %.0f%% off the whole", 100*e)
			}
			path := t.TempDir() + "/spans.jsonl"
			if err := writeSpans(path, tr.recorded(), j.causes); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			if len(lines) != len(tr.recorded()) {
				t.Fatalf("%d lines for %d spans", len(lines), len(tr.recorded()))
			}
			var first map[string]any
			if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
				t.Fatalf("span line is not JSON: %v: %s", err, lines[0])
			}
		})
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "op_p50_adj_us", Better: "lower", Bound: 0.10}
	mk := func(vals ...float64) *metricResult {
		return &metricResult{metricDef: def, Median: median(vals), Spread: spread(vals), Slices: vals}
	}
	for _, tc := range []struct {
		name string
		a, b *metricResult
		want verdict
	}{
		{"same", mk(100, 101, 102), mk(101, 102, 103), ok},
		{"better", mk(100, 101, 102), mk(80, 81, 82), ok},
		{"worse", mk(100, 101, 102), mk(120, 121, 122), worse},
		{"within bound", mk(100, 101, 102), mk(107, 108, 109), ok},
		{"noisy and overlapping", mk(90, 100, 130), mk(95, 115, 125), unresolved},
		{"noisy but clearly worse", mk(90, 100, 115), mk(150, 170, 190), worse},
	} {
		if got, _ := judge(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	up := metricDef{Name: "ops_adj_per_s", Better: "higher", Bound: 0.10}
	a := &metricResult{metricDef: up, Median: 1000, Slices: []float64{990, 1000, 1010}, Spread: 0.02}
	b := &metricResult{metricDef: up, Median: 800, Slices: []float64{790, 800, 810}, Spread: 0.025}
	if got, _ := judge(a, b); got != worse {
		t.Errorf("throughput fell by a fifth: %s, want worse", got)
	}
	floor := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.05}
	a = &metricResult{metricDef: floor, Median: 0.001, Slices: []float64{0.001}}
	b = &metricResult{metricDef: floor, Median: 0.002, Slices: []float64{0.002}}
	if got, _ := judge(a, b); got != ok {
		t.Errorf("a millisecond more set-up is under the floor: %s, want ok", got)
	}
}

// BENCHMARK.json is what the driver reads; the program's own tables must
// say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if s := spec.EndToEnd[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better || s.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, s, d)
		}
	}
	for i, d := range perLayer {
		if s := spec.PerLayer[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, s, d)
		}
	}
}
