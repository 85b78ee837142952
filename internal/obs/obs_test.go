package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0},
		{0, 0},
		{1, 1}, // [1,2)
		{2, 2}, // [2,4)
		{3, 2},
		{4, 3},
		{1023, 10},                // [512,1024)
		{1024, 11},                // [1024,2048)
		{time.Microsecond, 10},    // 1000ns -> [512,1024)
		{time.Millisecond, 20},    // 1e6ns, Len64=20
		{time.Second, 30},         // 1e9ns, Len64=30
		{time.Hour, 42},           // 3.6e12ns, Len64=42
		{1 << 62, NumBuckets - 1}, // clamps to overflow bucket
		{1<<63 - 1, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's samples must sit strictly below its reported upper
	// bound (except overflow, whose bound is a lower bound by doc).
	for i := 1; i < NumBuckets-1; i++ {
		lo := time.Duration(1) << (i - 1)
		hi := time.Duration(1)<<i - 1
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Errorf("bucket %d: range [%d,%d] not mapped to itself", i, lo, hi)
		}
		if hi >= BucketUpper(i) {
			t.Errorf("bucket %d: max sample %d >= upper bound %v", i, hi, BucketUpper(i))
		}
	}
	if BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %v, want 0", BucketUpper(0))
	}
}

func TestHistQuantileAndMean(t *testing.T) {
	var h Hist
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 90 samples at ~1us, 10 at ~1ms.
	for i := 0; i < 90; i++ {
		h.Record(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if p50 := s.Quantile(0.5); p50 < time.Microsecond || p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1-2us", p50)
	}
	if p99 := s.Quantile(0.99); p99 < time.Millisecond || p99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ~1-2ms", p99)
	}
	wantMean := (90*time.Microsecond + 10*time.Millisecond) / 100
	if got := s.Mean(); got != wantMean {
		t.Errorf("mean = %v, want %v", got, wantMean)
	}
}

// TestHistConcurrent hammers one histogram from many goroutines while
// snapshotting, then checks the final totals and that merging partial
// snapshots never exceeds the final one (counters are monotone).
func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var partials []HistSnapshot
	var pmu sync.Mutex
	wg.Add(1)
	go func() { // concurrent snapshotter
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			pmu.Lock()
			partials = append(partials, s)
			pmu.Unlock()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*1000 + i))
			}
		}(w)
	}
	for h.count.Load() < workers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	final := h.Snapshot()
	if final.Count != workers*per {
		t.Fatalf("count = %d, want %d", final.Count, workers*per)
	}
	var bucketSum uint64
	for _, c := range final.Buckets {
		bucketSum += c
	}
	if bucketSum != final.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, final.Count)
	}
	for _, p := range partials {
		if p.Count > final.Count {
			t.Fatalf("partial snapshot count %d exceeds final %d", p.Count, final.Count)
		}
	}
	// Merge two disjoint halves and compare against a combined run.
	var a, b Hist
	a.Record(time.Microsecond)
	a.Record(time.Second)
	b.Record(time.Millisecond)
	m := a.Snapshot()
	m.Merge(b.Snapshot())
	if m.Count != 3 || m.SumNanos != (time.Microsecond+time.Second+time.Millisecond).Nanoseconds() {
		t.Fatalf("merge: count=%d sum=%d", m.Count, m.SumNanos)
	}
}

// TestDisabledTracerCountsOnly: the per-type counts are the protocol's
// counters, kept with the tracer off; only the ring is opt-in.
func TestDisabledTracerCountsOnly(t *testing.T) {
	var tr Tracer
	tr.Emit(Event{Type: EvSpecStart})
	tr.Tally(EvSpecStart)
	if got := tr.Count(EvSpecStart); got != 2 {
		t.Fatalf("disabled tracer counted %d events, want 2", got)
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("disabled tracer buffered %d events", len(got))
	}
}

// TestEveryEventTypeIsNamed: /metrics prints a row per counted type, so
// none may fall back to the ev(N) placeholder.
func TestEveryEventTypeIsNamed(t *testing.T) {
	seen := map[string]EventType{}
	for typ := EventType(0); typ < NumEventTypes; typ++ {
		name := typ.String()
		if strings.HasPrefix(name, "ev(") {
			t.Errorf("event type %d has no name", typ)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("event types %d and %d share the name %q", prev, typ, name)
		}
		seen[name] = typ
	}
}

func TestTraceRingWraparound(t *testing.T) {
	var tr Tracer
	tr.Enable(8) // rounds to 8
	const total = 21
	for i := 0; i < total; i++ {
		tr.Emit(Event{Type: EvLockGrant, A: int64(i)})
	}
	evs := tr.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot len = %d, want 8 (ring capacity)", len(evs))
	}
	// Drop-oldest: the survivors are the last 8, in order.
	for i, e := range evs {
		if want := int64(total - 8 + i); e.A != want {
			t.Errorf("event %d: A=%d, want %d", i, e.A, want)
		}
	}
	if tr.Count(EvLockGrant) != total {
		t.Errorf("count = %d, want %d (counts survive wraparound)", tr.Count(EvLockGrant), total)
	}
}

// TestTraceConcurrent checks that concurrent emitters and snapshotters
// never observe a torn record: every snapshotted event must be one
// some goroutine actually emitted (A encodes the emitter, B the
// sequence — a torn read would mix them).
func TestTraceConcurrent(t *testing.T) {
	var tr Tracer
	tr.Enable(64)
	const workers, per = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range tr.Snapshot() {
				if e.B != e.A*1000000+e.At {
					select {
					case errs <- e.String():
					default:
					}
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a, at := int64(w), int64(i)
				tr.Emit(Event{Type: EvSuppressed, A: a, At: at, B: a*1000000 + at})
			}
		}(w)
	}
	for tr.Count(EvSuppressed) < workers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case bad := <-errs:
		t.Fatalf("torn trace record observed: %s", bad)
	default:
	}
	if got := tr.Count(EvSuppressed); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestSubscribe(t *testing.T) {
	var tr Tracer
	tr.Enable(16)
	ch, cancel := tr.Subscribe()
	tr.Emit(Event{Type: EvFence})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no wake-up after emit")
	}
	// Coalescing: many emits, at least one tick pending.
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Type: EvFence})
	}
	select {
	case <-ch:
	default:
		t.Fatal("no tick pending after burst")
	}
	cancel()
	// Drain any tick the burst left, then verify no new ones arrive.
	select {
	case <-ch:
	default:
	}
	tr.Emit(Event{Type: EvFence})
	select {
	case <-ch:
		t.Fatal("tick after cancel")
	default:
	}
}

func TestMetricsSnapshotMerge(t *testing.T) {
	var a, b Metrics
	a.Trace.Enable(16)
	a.Hist(HistLockAcquire).Record(time.Microsecond)
	a.Trace.Emit(Event{Type: EvSpecAbort})
	b.Hist(HistLockAcquire).Record(time.Millisecond)
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Hists[HistLockAcquire].Count != 2 {
		t.Fatalf("merged count = %d, want 2", s.Hists[HistLockAcquire].Count)
	}
	if s.Events[EvSpecAbort] != 1 {
		t.Fatalf("merged abort events = %d, want 1", s.Events[EvSpecAbort])
	}
}
