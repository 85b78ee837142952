package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"optsync/bench/hist"
	"optsync/internal/obs"
)

// A run sets the cluster up again and again, for setupBudget or
// maxSetups times, whichever ends first; setup_s is the median, and the
// last cluster built is the one measured. Set-up takes about a
// millisecond, so one reading of it would be mostly noise.
const (
	setupBudget = time.Second
	maxSetups   = 400
)

// pass is one cluster's worth of work on a workload: set up, measure,
// check. build makes the cluster; tr is non-nil for the traced pass.
type pass struct {
	w     *workload
	plan  *plan
	build func() (cluster, error)
	tr    *tracer
}

// outcome is what a pass leaves behind.
type outcome struct {
	m        *measured
	setups   []float64 // seconds: medians over fifths of the set-ups, speed-adjusted
	failures []string  // output-check violations
	checks   uint64
	counts   map[string]float64 // per-layer counts read from the cluster's own counters
}

// setup builds the cluster and runs the workload's first operation;
// set-up time is the whole of it.
func (p *pass) setup() (*env, time.Duration, error) {
	start := time.Now()
	cl, err := p.build()
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	e := &env{w: p.w, cl: cl, plan: p.plan, tr: p.tr}
	for c := range e.tally {
		e.tally[c] = make([]int64, p.w.shape.vars)
	}
	if err := p.w.firstOp(e); err != nil {
		_ = cl.Close()
		return nil, 0, fmt.Errorf("first operation: %w", err)
	}
	return e, time.Since(start), nil
}

// run sets up repeatedly within budget (once if it is zero), measures on
// the last cluster with slices of the given length, checks the outputs
// and closes the cluster.
func (p *pass) run(budget time.Duration, slice time.Duration) (*outcome, error) {
	out := &outcome{}
	var e *env
	ref := newReference()
	var refs hist.H
	for start := time.Now(); e == nil || (time.Since(start) < budget && len(out.setups) < maxSetups); {
		if e != nil {
			if err := e.cl.Close(); err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
		}
		var d time.Duration
		var err error
		if e, d, err = p.setup(); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, d.Seconds())
		ref.batch(&refs)
	}
	out.setups = chunkMedians(out.setups, speed(&refs))
	out.m = e.run(slice)

	want := make([]int64, p.w.shape.vars)
	for _, t := range e.tally {
		for v, x := range t {
			want[v] += x
		}
	}
	st, err := observe(e.cl, want)
	if err != nil {
		// The barrier or a read failed: the outputs cannot be vouched for.
		out.failures = append(out.failures, err.Error())
		out.checks = 1
	} else {
		out.failures = checkState(st)
		out.checks = st.checks()
	}
	if out.m.firstErr != nil {
		out.failures = append(out.failures, "first failed operation: "+out.m.firstErr.Error())
	}
	out.counts = layerCounts(e.cl, out.m)
	if err := e.cl.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return out, nil
}

// chunkMedians reduces the set-up times to one median per slices-th of
// them, in order, so that set-up reports like every other metric — a
// median of a handful of steady values with their spread — and scales
// them by f, the machine's speed while they were taken.
func chunkMedians(reps []float64, f float64) []float64 {
	n := slices
	if len(reps) < 2*slices {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = f * median(reps[i*len(reps)/n:(i+1)*len(reps)/n])
	}
	return out
}

// layerCounts reads the per-layer counts the program keeps itself, over
// the cluster's whole life (set-up's one operation included).
func layerCounts(cl cluster, m *measured) map[string]float64 {
	g, c := cl.counters()
	snap := cl.metrics()
	t := snap.Transport
	counts := map[string]float64{
		"gwc.gaps":                float64(g.Gaps),
		"gwc.nacks":               float64(g.Nacks),
		"gwc.retransmits":         float64(g.Retransmits),
		"gwc.duplicates":          float64(g.Duplicates),
		"transport.send_drops":    float64(t.SendDrops),
		"transport.decode_errors": float64(t.DecodeErrors),
		"transport.conn_resets":   float64(t.ConnResets),
	}
	if t.Writevs > 0 {
		counts["transport.frames_per_writev"] = float64(t.FramesSent) / float64(t.Writevs)
	}
	if locked := float64(g.LockGrants); locked > 0 {
		// Every grant is answered by one release, so requests + 2*grants
		// counts the lock plane's logical messages; multicast copies of a
		// grant are one message here, re-sent requests are not.
		counts["gwc.lock_frames_per_section"] = (float64(g.LockRequests) + 2*locked) / locked
		counts["gwc.suppressed_per_section"] = float64(g.Suppressed) / locked
	}
	if sections := c.Optimistic + c.Regular + c.Leased; sections > 0 {
		counts["core.regular_share"] = float64(c.Regular) / float64(sections)
		if c.Optimistic > 0 {
			counts["core.rollback_share"] = float64(c.Rollbacks) / float64(c.Optimistic)
		}
		if c.Rollbacks > 0 {
			counts["core.rollback_p50_us"] = float64(snap.Hists[obs.HistRollback].Quantile(0.5)) / 1e3
		}
	}
	if reg, opt := m.med("section_regular_p50_us"), m.med("op_p50_us"); reg > 0 && opt > 0 {
		counts["core.opt_speedup"] = reg / opt
	}
	return counts
}

// finish fills in the parts of a workload result every pass shares.
func finish(wr *workloadResult, outs ...*outcome) {
	wr.Correct = true
	for _, o := range outs {
		wr.Attempted += o.m.attempted + o.checks
		wr.Failed += o.m.failed + uint64(len(o.failures))
		wr.Failures = append(wr.Failures, o.failures...)
		wr.Noisy = wr.Noisy || o.m.noisy
		if len(o.failures) > 0 || o.m.failed > 0 {
			wr.Correct = false
		}
	}
}

func newResult(w *workload, p *plan, traced bool) workloadResult {
	return workloadResult{Name: w.name, Why: w.why, Op: w.op, OpHash: fmt.Sprintf("%016x", p.hash()), Traced: traced}
}

// runEndToEnd is the untraced pass through the public API: the source of
// every end-to-end number.
func runEndToEnd(w *workload, seed int64, dur time.Duration) (workloadResult, error) {
	p := &pass{w: w, plan: newPlan(seed, w.shape), build: func() (cluster, error) { return newPublic(w.shape) }}
	wr := newResult(w, p.plan, false)
	out, err := p.run(setupBudget, dur/slices)
	if err != nil {
		return wr, err
	}
	if out.m.ops == 0 {
		return wr, errors.New("no operation completed in the measured slices")
	}
	out.m.series["setup_s"] = &series{values: out.setups}
	wr.Metrics = results(endToEnd, out.m, w)
	wr.Metrics = append(wr.Metrics, results(perLayer, out.m, w)...)
	wr.Metrics = scalars(wr.Metrics, perLayer, out.counts)
	finish(&wr, out)
	return wr, nil
}

// Shares of -seconds the traced run spends: on the short untraced pass
// that gives the counts and the base for the tracing overhead, on the
// traced pass (or less: it stops when the span buffer is nearly full),
// and on each standalone rung.
const (
	tracedPassShare = 0.15
	rungShare       = 0.05
)

// runTraced produces the per-layer metrics: counts and whole-process
// costs from a short untraced pass through the public API, the journeys
// from a pass over the same stack assembled by hand around tracing
// endpoints, and the standalone rungs of the layers on the workload's
// path.
func runTraced(w *workload, seed int64, dur time.Duration, dir string) (workloadResult, error) {
	plan := newPlan(seed, w.shape)
	wr := newResult(w, plan, true)
	slice := time.Duration(float64(dur) * tracedPassShare / slices)

	base := &pass{w: w, plan: plan, build: func() (cluster, error) { return newPublic(w.shape) }}
	plain, err := base.run(0, slice)
	if err != nil {
		return wr, fmt.Errorf("untraced pass: %w", err)
	}

	tr := newTracer()
	tp := &pass{w: w, plan: plan, tr: tr, build: func() (cluster, error) { return newLayered(w.shape, tr.wrap) }}
	traced, err := tp.run(0, slice)
	if err != nil {
		return wr, fmt.Errorf("traced pass: %w", err)
	}
	if plain.m.ops == 0 || traced.m.ops == 0 {
		return wr, errors.New("no operation completed in the measured slices")
	}

	vals := plain.counts
	spans := tr.recorded()
	ops := float64(traced.m.ops)
	if frames, bytes, inSend := sent(spans); frames > 0 {
		vals["transport.frames_per_op"] = float64(frames) / ops
		vals["transport.bytes_per_op"] = float64(bytes) / ops
		vals["transport.send_call_ns"] = float64(inSend) / float64(frames)
	}
	vals["trace.dropped_spans"] = float64(tr.dropped.Load())
	if a, b := plain.m.med("op_p50_us"), traced.m.med("op_p50_us"); a > 0 {
		vals["trace.overhead_share"] = b/a - 1
	}
	for _, name := range []string{"core.spec_entry_us", "core.commit_wait_us"} {
		if v := traced.m.med(name); v > 0 {
			vals[name] = v
		}
	}
	causes := map[int]int{}
	for _, j := range []*journey{writeJourney(spans), lockJourney(spans)} {
		if j.ops == 0 {
			continue
		}
		for i, name := range j.names {
			vals[name] = j.stages[i].Quantile(0.5) / 1e3
		}
		errName := "trace.write_sum_err"
		if j.names[0] == lockStages[0] {
			errName = "trace.lock_sum_err"
		}
		vals[errName] = j.sumErr()
		if j.matched*100 < j.ops*99 {
			traced.failures = append(traced.failures, fmt.Sprintf("%s: only %d of %d traced operations had all their spans", errName, j.matched, j.ops))
		}
		for k, v := range j.causes {
			causes[k] = v
		}
	}
	if err := writeSpans(filepath.Join(dir, "trace-"+w.name+".jsonl"), spans, causes); err != nil {
		return wr, err
	}

	rr := &rungRun{dur: time.Duration(float64(dur) * rungShare), tcp: w.shape.tcp, frames: tr.frameMix(), out: vals}
	for _, r := range w.rungs {
		if err := r(rr); err != nil {
			return wr, fmt.Errorf("rung: %w", err)
		}
	}

	wr.Metrics = results(perLayer, plain.m, w)
	wr.Metrics = scalars(wr.Metrics, perLayer, vals)
	finish(&wr, plain, traced)
	return wr, nil
}
