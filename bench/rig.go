package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"optsync/bench/hist"
)

// The rig measures a workload in phases: phase 0 is the warm-up (a tenth
// of the measured time on top of it, discarded), phases 1..slices are
// measured, and slices+1 tells the clients to stop. A metric is computed
// per slice and reported as the median over slices, with (max-min)/median
// beside it as that run's own noise.
const (
	slices     = 5
	readBatch  = 1024 // local reads timed as one sample
	p99Samples = 1000 // a slice needs this many for ten to lie beyond p99
)

// kind names a latency a client records.
type kind int

const (
	kOp        kind = iota // the workload's headline operation
	kLock                  // bare Acquire+Release
	kRegular               // regular-path section
	kRead                  // one batch of readBatch local reads
	kSpecEntry             // traced only: OptimisticDo call -> body starts
	kCommit                // traced only: body ends -> call returns
	nKinds
)

// recorder is one client goroutine's own tally; the rig merges them once
// the clients have stopped.
type recorder struct {
	ops       [slices + 2]uint64 // headline operations completed, by phase
	attempted uint64             // API operations issued, all phases
	failed    uint64             // of those, how many returned an error
	firstErr  error
	lat       [nKinds][slices + 2]*hist.H
}

func newRecorder(kinds []kind) *recorder {
	r := &recorder{}
	for _, k := range kinds {
		for ph := range r.lat[k] {
			r.lat[k][ph] = new(hist.H)
		}
	}
	return r
}

func (r *recorder) record(k kind, ph int, d time.Duration) { r.lat[k][ph].Record(int64(d)) }

// fail counts one failed operation and keeps the first error for the report.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// env is one measured run of one workload on one cluster.
type env struct {
	w     *workload
	cl    cluster
	plan  *plan
	tr    *tracer // nil unless this is the traced pass
	phase atomic.Int32
	// tally[c][v] is what client c's own bookkeeping says it contributed
	// to variable v; the output check expects their sum in every copy.
	tally [2][]int64
}

// reference is the rig's own yardstick: a batch is readBatch rounds of
// lock, map look-up, unlock on data nothing else touches. It shares
// nothing with the program under test, so its cost moves only with the
// machine — and this machine moves: for minutes at a time everything on
// it runs a quarter slower (README.md, "Speed adjustment"). The rig
// times a batch every millisecond beside the workload and scales the
// slice's time-based metrics by refNominal over the slice's median, so
// that they read as they would with the machine at its usual speed.
type reference struct {
	mu  sync.Mutex
	m   map[uint32]int64
	sum int64
}

// refNominal is the reference operation's cost, in nanoseconds, on the
// rig the benchmark was defined on while it runs undisturbed.
const refNominal = 20.0

func newReference() *reference {
	c := &reference{m: make(map[uint32]int64, 64)}
	for i := uint32(0); i < 64; i++ {
		c.m[i] = int64(i)
	}
	return c
}

// batch times one batch into h.
func (c *reference) batch(h *hist.H) {
	t0 := time.Now()
	for i := uint32(0); i < readBatch; i++ {
		c.mu.Lock()
		c.sum += c.m[i&63]
		c.mu.Unlock()
	}
	h.Record(int64(time.Since(t0)))
}

// speed is how fast the machine ran while h was filled, as a share of
// its usual speed: the factor a time measured then is multiplied by.
func speed(h *hist.H) float64 {
	if h.Count() == 0 {
		return 1
	}
	return refNominal * readBatch / h.Quantile(0.5)
}

// at reports the current phase and whether clients should keep going. A
// traced pass also stops once its span buffer is nearly full, so that
// nothing is dropped.
func (e *env) at() (ph int, run bool) {
	ph = int(e.phase.Load())
	return ph, ph <= slices && (e.tr == nil || !e.tr.nearlyFull())
}

// procSample is a reading of the whole process's cumulative costs.
type procSample struct {
	at        time.Time
	cpu       time.Duration // getrusage user+sys
	allocs    uint64
	bytes     uint64
	mutexWait float64 // seconds goroutines spent blocked on sync.Mutex
	gcCPU     float64
	totalCPU  float64
	mapped    uint64    // bytes the runtime holds from the OS
	sched     []uint64  // /sched/latencies:seconds bucket counts
	bounds    []float64 // and the buckets' boundaries
}

var procNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
	"/sched/latencies:seconds",
}

func sampleProc() procSample {
	ms := make([]metrics.Sample, len(procNames))
	for i, n := range procNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	h := ms[7].Value.Float64Histogram()
	return procSample{
		at:        time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:    ms[0].Value.Uint64(),
		bytes:     ms[1].Value.Uint64(),
		mutexWait: ms[2].Value.Float64(),
		gcCPU:     ms[3].Value.Float64(),
		totalCPU:  ms[4].Value.Float64(),
		mapped:    ms[5].Value.Uint64() - ms[6].Value.Uint64(),
		sched:     append([]uint64(nil), h.Counts...),
		bounds:    h.Buckets,
	}
}

// schedP99 is the 99th percentile of goroutine scheduling latency between
// two samples, in microseconds: the rig's own noise. It reports a
// bucket's upper bound, so it errs high.
func schedP99(a, b procSample) float64 {
	var total uint64
	for i := range b.sched {
		total += b.sched[i] - a.sched[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i := range b.sched {
		cum += b.sched[i] - a.sched[i]
		if cum >= rank {
			up := b.bounds[i+1]
			if math.IsInf(up, 1) {
				up = b.bounds[i]
			}
			return up * 1e6
		}
	}
	return 0
}

// series is one metric's per-slice values.
type series struct {
	values  []float64
	samples uint64 // latency samples in the thinnest slice; 0 if the metric is not a quantile
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max-min)/median, the noise printed beside a median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) == 0 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}

// measured is what one pass over a workload yields.
type measured struct {
	series    map[string]*series
	ops       uint64 // headline operations in measured slices
	attempted uint64
	failed    uint64
	firstErr  error
	noisy     bool // scheduling latency p99 passed 1 ms in some slice
}

func (m *measured) add(name string, v float64) {
	s := m.series[name]
	if s == nil {
		s = &series{}
		m.series[name] = s
	}
	s.values = append(s.values, v)
}

// quantile adds the q-quantile of one slice's merged histogram, in unit
// (nanoseconds per reported unit), and tracks the sample count.
func (m *measured) quantile(name string, h *hist.H, q, unit float64) {
	m.add(name, h.Quantile(q)/unit)
	if s := m.series[name]; len(s.values) == 1 || h.Count() < s.samples {
		s.samples = h.Count()
	}
}

// run drives the clients through warm-up and the measured slices of the
// given length, then stops them and folds their tallies into per-slice
// metric values.
func (e *env) run(slice time.Duration) *measured {
	bodies := e.w.clients(e)
	recs := make([]*recorder, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		recs[i] = newRecorder(e.w.kinds)
		wg.Add(1)
		go func(body func(*recorder), r *recorder) {
			defer wg.Done()
			body(r)
		}(body, recs[i])
	}
	time.Sleep(slices * slice / 10)
	if e.tr != nil {
		e.tr.on.Store(true) // off through set-up and warm-up
	}
	ref := newReference()
	var refs [slices + 1]hist.H
	marks := []procSample{sampleProc()}
	for ph, full := 1, false; ph <= slices && !full; ph++ {
		e.phase.Store(int32(ph))
		full = e.rest(slice, ref, &refs[ph])
		marks = append(marks, sampleProc())
	}
	e.phase.Store(slices + 1)
	wg.Wait()

	m := &measured{series: make(map[string]*series)}
	for _, r := range recs {
		m.attempted += r.attempted
		m.failed += r.failed
		if m.firstErr == nil {
			m.firstErr = r.firstErr
		}
	}
	var peakMB float64
	for ph := 1; ph < len(marks); ph++ {
		a, b := marks[ph-1], marks[ph]
		dur := b.at.Sub(a.at)
		var ops uint64
		var lat [nKinds]hist.H
		for _, r := range recs {
			ops += r.ops[ph]
			for k := range lat {
				if h := r.lat[k][ph]; h != nil {
					lat[k].Merge(h)
				}
			}
		}
		m.ops += ops
		if ops == 0 {
			continue // a traced pass may fill its buffer before the last slice
		}
		n := float64(ops)
		f := speed(&refs[ph])
		cpu := float64((b.cpu - a.cpu).Microseconds()) / n
		m.quantile("rig.ref_ns", &refs[ph], 0.50, readBatch)
		m.quantile("op_p50_us", &lat[kOp], 0.50, 1e3)
		m.quantile("op_p99_us", &lat[kOp], 0.99, 1e3)
		m.add("ops_per_s", n/dur.Seconds())
		m.add("cpu_us_per_op", cpu)
		m.add("op_p50_adj_us", f*lat[kOp].Quantile(0.50)/1e3)
		m.add("ops_adj_per_s", n/dur.Seconds()/f)
		m.add("cpu_adj_us_per_op", f*cpu)
		m.add("allocs_per_op", float64(b.allocs-a.allocs)/n)
		if lat[kRead].Count() > 0 {
			m.quantile("local_read_ns", &lat[kRead], 0.50, readBatch)
		}
		if lat[kLock].Count() > 0 {
			m.quantile("lock_rtt_p50_us", &lat[kLock], 0.50, 1e3)
			m.quantile("lock_rtt_p99_us", &lat[kLock], 0.99, 1e3)
		}
		if lat[kRegular].Count() > 0 {
			m.quantile("section_regular_p50_us", &lat[kRegular], 0.50, 1e3)
		}
		if lat[kSpecEntry].Count() > 0 {
			m.quantile("core.spec_entry_us", &lat[kSpecEntry], 0.50, 1e3)
			m.quantile("core.commit_wait_us", &lat[kCommit], 0.50, 1e3)
		}
		m.add("proc.mutex_wait_us_per_op", (b.mutexWait-a.mutexWait)*1e6/n)
		if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
			m.add("proc.gc_cpu_share", (b.gcCPU-a.gcCPU)/cpu)
		} else {
			m.add("proc.gc_cpu_share", 0)
		}
		m.add("proc.bytes_per_op", float64(b.bytes-a.bytes)/n)
		peakMB = max(peakMB, float64(b.mapped)/(1<<20))
		sl := schedP99(a, b)
		m.add("proc.sched_lat_p99_us", sl)
		if sl > 1000 {
			m.noisy = true
		}
	}
	m.add("proc.heap_peak_mb", peakMB)
	return m
}

// rest lets a slice run its length, timing a reference batch into h
// every millisecond. A traced pass ends early, and rest reports true,
// once the span buffer is nearly full.
func (e *env) rest(slice time.Duration, ref *reference, h *hist.H) (full bool) {
	for end := time.Now().Add(slice); time.Now().Before(end); time.Sleep(time.Millisecond) {
		ref.batch(h)
		if e.tr != nil && e.tr.nearlyFull() {
			return true
		}
	}
	return false
}

// med is the median over slices of a metric, or 0 if the workload does
// not produce it.
func (m *measured) med(name string) float64 {
	if s := m.series[name]; s != nil {
		return median(s.values)
	}
	return 0
}
