package optsync

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"optsync/internal/obs"
)

// TestWriteFastPathAllocs is the alloc regression gate for the
// sequenced-update fast path: a steady-state Write — unguarded or
// guarded under a held mutex — performs zero heap allocations per
// operation, and enabling the event tracer must not change that. The
// observability layer is wired through this path, so any allocation it
// introduces (boxing an emit argument, a lazily built map, a fmt call)
// fails this test before it can reach a benchmark diff.
func TestWriteFastPathAllocs(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var opts []Option
		if traced {
			opts = append(opts, WithTracing(0))
		}
		c, g, m, v := newTestCluster(t, 3, opts...)
		h := c.MustHandle(1)
		free := g.Int("free")
		if err := h.Write(free, 0); err != nil { // warm the var's slot
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(5000, func() { _ = h.Write(free, 1) }); avg > 0.05 {
			t.Errorf("traced=%v: unguarded Write allocates %.2f/op, want 0", traced, avg)
		}
		if err := h.Acquire(m); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(5000, func() { _ = h.Write(v, 1) }); avg > 0.05 {
			t.Errorf("traced=%v: guarded Write allocates %.2f/op, want 0", traced, avg)
		}
		if err := h.Release(m); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLockWaitAllocs pins the lock plane's steady state: a blocking
// Acquire/Release round trip over InProc — request, root grant, wait,
// release — allocates nothing anywhere in the process. The waiter's
// wake channel comes from the node's free list (gwc's getWait) and it
// keeps no timer; this fails if a wait builds either afresh.
func TestLockWaitAllocs(t *testing.T) {
	c, _, m, _ := newTestCluster(t, 3)
	h := c.MustHandle(1)
	round := func() {
		if err := h.Acquire(m); err != nil {
			t.Fatal(err)
		}
		if err := h.Release(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // fill the free list, size the mailboxes
		round()
	}
	if avg := testing.AllocsPerRun(2000, round); avg > 0.05 {
		t.Errorf("Acquire/Release round trip allocates %.2f/op, want 0", avg)
	}
}

// TestOptimisticSectionAllocs pins what the paper's mechanism costs when
// it has nothing to roll back: a committed, uncontended OptimisticDo —
// look, arm, request, save-set, verdict, release — allocates the two
// halves of the Tx it hands the body (this package's and core's, which
// carries the save-set inline) and nothing else. The interrupt and the
// verdict live in the engine's per-lock record (core's lockRec); this
// fails if a section builds either afresh or grows a save-set on the heap.
func TestOptimisticSectionAllocs(t *testing.T) {
	c, _, m, v := newTestCluster(t, 3)
	h := c.MustHandle(1)
	section := func() {
		if err := h.OptimisticDo(m, func(tx *Tx) error {
			cur, err := tx.Read(v)
			if err != nil {
				return err
			}
			return tx.Write(v, cur+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // make the record, size the save-set and the mailboxes
		section()
	}
	before := h.Stats().Optimistic
	if avg := testing.AllocsPerRun(2000, section); avg > 2 {
		t.Errorf("committed optimistic section allocates %.2f/op, want <= 2", avg)
	}
	after := h.Stats().Optimistic
	if got := after.Commits - before.Commits; got < 2000 {
		t.Errorf("%d of the measured sections committed optimistically, want all of them (stats %+v)", got, after)
	}
}

// TestMetricsUnderContendedLoad is the acceptance check for the
// observability layer: after chaos-style contended load, the cluster-wide
// snapshot must hold real acquire-latency and rollback-cost
// distributions, and the opt-in HTTP endpoint must serve them.
func TestMetricsUnderContendedLoad(t *testing.T) {
	c, _, m, v := newTestCluster(t, 3, WithMetricsAddr("127.0.0.1:0"))
	addr := c.MetricsAddr()
	if addr == "" {
		t.Fatal("WithMetricsAddr bound no address")
	}

	// Drive rounds of three nodes racing the same mutex — blocking Do for
	// acquire-latency samples, OptimisticDo for speculative sections —
	// until contention has produced at least one rollback on each node's
	// optimistic path. A round with no rollback is legal (speculation can
	// win every race), so keep loading until the distribution fills in.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			h := c.MustHandle(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 8; r++ {
					if err := h.OptimisticDo(m, func(tx *Tx) error {
						cur, err := tx.Read(v)
						if err != nil {
							return err
						}
						return tx.Write(v, cur+1)
					}); err != nil {
						t.Error(err)
						return
					}
					if err := h.Do(m, func() error { return nil }); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		s := c.Metrics()
		if s.Hists[obs.HistLockAcquire].Count > 0 && s.Hists[obs.HistRollback].Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("contended load never filled the histograms: acquire n=%d rollback n=%d",
				s.Hists[obs.HistLockAcquire].Count, s.Hists[obs.HistRollback].Count)
		}
	}

	s := c.Metrics()
	// A rollback implies a speculative section ran, and its restore cost
	// was timed; the merged snapshot must agree with itself.
	if s.Hists[obs.HistSpecSection].Count == 0 {
		t.Error("rollbacks recorded but no speculative section was timed")
	}
	if s.Hists[obs.HistRollback].Mean() < 0 {
		t.Errorf("rollback mean = %v, negative cost", s.Hists[obs.HistRollback].Mean())
	}
	// WithMetricsAddr implies tracing, so event counters must be live too.
	if s.Events[obs.EvLockGrant] == 0 {
		t.Error("tracing implied by WithMetricsAddr, but no grant events counted")
	}

	// Every message above went through a receive loop's drain.
	if g := s.Gauges[obs.GaugeRecvBacklog]; g.Max < 1 {
		t.Errorf("recv_backlog = %+v after load, want a high-water mark >= 1", g)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{"lock_acquire", "rollback", "spec_section", "recv_backlog",
		"pushed_in_place", "pushed_queued", "pushed_declined"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "lock_acquire   n=0") {
		t.Errorf("/metrics reports an empty acquire histogram after load:\n%s", text)
	}

	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d, want 200", resp.StatusCode)
	}
}
